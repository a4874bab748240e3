//! The catalogue of metric names: the single list `BENCHMARK.json`, the
//! result lines and the README glossary all have to agree with.

/// One metric the benchmark can print.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees; every workload's untraced run reports
/// every one of them (the README says what each means per workload).
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    lower("read_p50_us", "us"),
    lower("write_p50_us", "us"),
    lower("cpu_us_per_op", "us"),
    lower("write_amp", "x"),
    lower("space_amp", "x"),
    lower("peak_rss_mb", "MiB"),
];

/// What single layers did; a workload's traced run reports the ones that
/// apply to it and 0 for the rest. Direction says which way is better
/// when everything else is equal; they carry no bound.
pub const PER_LAYER: &[MetricDef] = &[
    // lsm.db
    lower("db.write_self_us", "us"),
    lower("db.get_self_us", "us"),
    higher("db.group_commit_size", "count"),
    lower("db.stall_share", "share"),
    lower("db.write_slowdowns", "count"),
    lower("db.write_stops", "count"),
    // Tails as the client saw them. Not gated: on the reference host p99
    // moved by 20% to 400% of its median between identical runs.
    lower("client.read_p99_us", "us"),
    lower("client.write_p99_us", "us"),
    lower("client.read_p999_us", "us"),
    lower("client.write_p999_us", "us"),
    // lsm.memtable
    lower("memtable.btree.insert_ns", "ns"),
    lower("memtable.btree.get_ns", "ns"),
    lower("memtable.skiplist.insert_ns", "ns"),
    lower("memtable.skiplist.get_ns", "ns"),
    higher("memtable.hit_ratio", "share"),
    // lsm.wal
    lower("wal.writes", "count"),
    lower("wal.syncs", "count"),
    lower("wal.bytes_per_user_byte", "x"),
    // lsm.flush, lsm.compaction
    lower("flush.jobs", "count"),
    lower("flush.bytes", "B"),
    lower("flush.busy_s", "s"),
    lower("compaction.jobs", "count"),
    lower("compaction.bytes_read", "B"),
    lower("compaction.bytes_written", "B"),
    lower("compaction.busy_s", "s"),
    higher("compaction.keys_dropped", "count"),
    // lsm.sstable, lsm.cache
    higher("cache.block_hit_ratio", "share"),
    lower("cache.block_misses_per_get", "count"),
    lower("sstable.preads_per_get", "count"),
    lower("sstable.bytes_read_per_get", "B"),
    higher("bloom.useful_ratio", "share"),
    lower("table_cache.opens", "count"),
    lower("table_cache.evictions", "count"),
    lower("block.seek_ns", "ns"),
    lower("bloom.probe_ns", "ns"),
    // lsm.vfs (the device)
    lower("vfs.appends", "count"),
    lower("vfs.append_bytes", "B"),
    lower("vfs.fsyncs", "count"),
    lower("vfs.fsync_p50_us", "us"),
    lower("vfs.preads", "count"),
    lower("vfs.fg_preads", "count"),
    lower("vfs.pread_bytes", "B"),
    lower("vfs.pread_p50_us", "us"),
    lower("vfs.busy_s", "s"),
    lower("vfs.append_4k_us", "us"),
    lower("vfs.fsync_us", "us"),
    lower("vfs.pread_4k_us", "us"),
    // lsm.shard
    lower("shard.put_tax_us", "us"),
    lower("shard.get_tax_us", "us"),
    // server.protocol
    lower("protocol.encode_ns", "ns"),
    lower("protocol.decode_ns", "ns"),
    // server.server, server.client
    lower("rpc.ping_rtt_us", "us"),
    lower("rpc.get_tax_us", "us"),
    lower("rpc.put_tax_us", "us"),
    higher("server.requests_ok", "count"),
    lower("server.requests_err", "count"),
    lower("server.bytes_in", "B"),
    lower("server.bytes_out", "B"),
    lower("server.backpressure_stalls", "count"),
    // server.repl, server.cluster
    lower("repl.tax_us", "us"),
    lower("repl.lag_seq_max", "count"),
    lower("repl.catchup_s", "s"),
    lower("repl.failover_s", "s"),
    // hwsim + the sim-mode engine
    higher("sim.fill_ops_per_wall_s", "1/s"),
    higher("sim.read_ops_per_wall_s", "1/s"),
    higher("sim.measure_share", "share"),
    // core, llm
    lower("core.prompt_build_us", "us"),
    lower("core.evaluate_us", "us"),
    lower("llm.complete_us", "us"),
    lower("tune.wall_s", "s"),
    higher("tune.gain_x", "x"),
    // the harness itself
    lower("harness.gen_ns_per_op", "ns"),
    higher("trace.ops_per_s", "1/s"),
    higher("trace.accounted_share", "share"),
    // The host: what every gated timing of the measured phase was divided
    // by (see `hostspeed`); per-layer timings are as measured.
    lower("host.slowdown", "x"),
];

/// The five workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 5] = [
    "fill",
    "read_cold",
    "serve_mixed",
    "cluster_write",
    "tune_sim",
];

/// The workloads `BENCHMARK.json` lists, the ones a later change is gated
/// on. `cluster_write` is run, verified and reported by `perf run` like
/// the rest but is not gated: about one run in five of the same binary
/// and seed comes out 1.5 to 8 times slower than the others whatever the
/// host is doing (a finding about `server::repl`, see the README), so no
/// bound the contract allows would hold it.
pub const GATED: [&str; 4] = ["fill", "read_cold", "serve_mixed", "tune_sim"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; the catalogue is what the
    /// program prints. They must name the same metrics, units, directions
    /// and workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = spec.get(section).unwrap().as_arr();
            assert_eq!(listed.len(), defs.len(), "{section} length");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(
                    entry.get("unit").unwrap().as_str(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(better),
                    "{}",
                    def.name
                );
                if section == "end_to_end" {
                    let bound = entry.get("bound").unwrap().as_f64().unwrap();
                    assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", def.name);
                }
            }
        }
        let names: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, GATED);
        assert!(GATED.iter().all(|w| WORKLOADS.contains(w)));
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    }
}
