//! PHY-chain integration: real kernels and the compute model agreeing with
//! each other.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use pran_phy::compute::{CellWorkload, ComputeModel, Stage};
use pran_phy::frame::{Bandwidth, Direction};
use pran_phy::mcs::Mcs;
use pran_phy::pipeline::{run_uplink_subframe, PipelineConfig};

#[test]
fn measured_decode_dominance_matches_model() {
    // The analytic model says turbo decode is the largest uplink stage;
    // the measured pipeline must agree (that is what makes the model a
    // valid scale-up of the kernels).
    let model = ComputeModel::calibrated();
    let w = CellWorkload {
        bandwidth: Bandwidth::Mhz5,
        antennas: pran_phy::frame::AntennaConfig::new(1, 1),
        prbs_used: 25,
        mcs: Mcs::new(16),
        direction: Direction::Uplink,
        split: pran_phy::FunctionalSplit::Full,
    };
    let model_share = model.subframe_cost(&w).stage_share(Stage::TurboDecode);

    let cfg = PipelineConfig {
        bandwidth: Bandwidth::Mhz5,
        code_block_bits: 512,
        decoder_iterations: 5,
        noise_sigma: 0.04,
        c_init: 7,
    };
    let mut rng = SmallRng::seed_from_u64(5);
    let run = run_uplink_subframe(25, Mcs::new(16), &cfg, &mut rng);
    assert!(run.crc_ok);
    let measured_share = run.stage_share(Stage::TurboDecode);

    assert!(
        model_share > 0.35 && measured_share > 0.35,
        "decode must dominate both: model {model_share:.2}, measured {measured_share:.2}"
    );
}

#[test]
fn pipeline_time_scales_with_allocation() {
    // More PRBs → more coded bits → proportionally more decode work.
    let cfg = PipelineConfig {
        bandwidth: Bandwidth::Mhz10,
        code_block_bits: 512,
        decoder_iterations: 5,
        noise_sigma: 0.04,
        c_init: 3,
    };
    let mut rng = SmallRng::seed_from_u64(17);
    let small = run_uplink_subframe(10, Mcs::new(16), &cfg, &mut rng);
    let large = run_uplink_subframe(40, Mcs::new(16), &cfg, &mut rng);
    assert!(small.crc_ok && large.crc_ok);
    let ratio = large.stage(Stage::TurboDecode).as_secs_f64()
        / small.stage(Stage::TurboDecode).as_secs_f64().max(1e-9);
    // Wide band: wall-clock ratios wobble on a loaded single-core box.
    assert!(
        (1.5..16.0).contains(&ratio),
        "4× the PRBs should cost ~4× the decode: got {ratio:.2}×"
    );
}

#[test]
fn cell_edge_users_cost_less_compute_per_subframe() {
    // Lower MCS → fewer bits per PRB → cheaper decode per subframe, which
    // is why the GOPS model keys on MCS as well as PRBs.
    let model = ComputeModel::calibrated();
    let near = CellWorkload {
        mcs: Mcs::new(26),
        ..CellWorkload::full_load(Direction::Uplink)
    };
    let edge = CellWorkload {
        mcs: Mcs::new(4),
        ..CellWorkload::full_load(Direction::Uplink)
    };
    assert!(model.cell_gops(&near) > 1.5 * model.cell_gops(&edge));
}
