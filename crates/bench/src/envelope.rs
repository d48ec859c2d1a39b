//! The `pran-bench/1` envelope: the one shape every `e*` binary writes
//! its results in, and `telemetry_check` reads them back through.

use serde::{Deserialize, Serialize};
use serde_json::Map;

/// The `schema` tag of an [`Envelope`].
pub const REPORT_SCHEMA: &str = "pran-bench/1";

/// One `results/<name>.json` (or `.host.json`) document — experiment
/// name, schema tag, workload/config metadata, then named result
/// sections:
///
/// ```json
/// { "experiment": "e6_deadlines", "schema": "pran-bench/1",
///   "meta": { "cells": 12, ... }, "results": { "sweep": [...], ... } }
/// ```
///
/// What the sections claim is held by the exit code of the binary that
/// wrote them, not here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// The experiment: the `results/<name>.json` stem.
    pub experiment: String,
    /// [`REPORT_SCHEMA`].
    pub schema: String,
    /// Workload/config metadata (cells, seeds, cores, …), in the order
    /// it was stamped.
    pub meta: Map,
    /// Named result sections, in the order they were added.
    pub results: Map,
}

impl Envelope {
    /// What the fields' types cannot say: the schema tag.
    pub fn check(&self) -> Result<(), String> {
        if self.schema == REPORT_SCHEMA {
            Ok(())
        } else {
            Err(format!(
                "schema tag {:?}, expected {REPORT_SCHEMA:?}",
                self.schema
            ))
        }
    }
}
