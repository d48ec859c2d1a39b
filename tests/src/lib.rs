//! Integration test support crate (tests live in `tests/tests/`).

/// `fixtures/controller_snapshot_v1.json` as the controller writes it
/// back today: its config carries five sections `SystemConfig` no longer
/// has (`pool.cores`, `scheduler`, `parallel`, `telemetry`, `metro`), one
/// `SloPolicy` field (`slo.ewma_alpha`) and the two bounds the `chaos`
/// section held before `slo` became their one home (`outage_bound`,
/// `miss_ratio_bound`), all read by nothing, which the reader steps over
/// and the writer leaves out. Everything else is the fixture's bytes.
pub fn v1_snapshot_written_back() -> String {
    let mut text = include_str!("../fixtures/controller_snapshot_v1.json")
        .trim_end()
        .to_string();
    for unread in [
        r#""cores":8,"#,
        r#""scheduler":"GlobalEdf","parallel":{"cores":8,"batch":4,"steal":true},"#,
        r#""telemetry":{"enabled":false,"clock":"SimOnly","buffer_events":8192},"#,
        r#""metro":null,"#,
        r#""ewma_alpha":0.3,"#,
        r#""outage_bound":{"secs":0,"nanos":200000000},"#,
        r#""miss_ratio_bound":0.01,"#,
    ] {
        assert!(text.contains(unread), "the fixture moved: {unread}");
        text = text.replacen(unread, "", 1);
    }
    text
}
