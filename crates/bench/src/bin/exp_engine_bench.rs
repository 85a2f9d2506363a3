//! Benchmarks the engine cores: simulated seconds per wall second for
//! the fixed-tick and variable-stride loops across the topology ladder,
//! plus the tracing-parity cell and the fork sweep. Writes
//! `results/engine_bench.csv`. `--quick` runs the reduced two-shape
//! matrix CI exercises.

fn main() {
    let quick = ebs_bench::quick_requested();
    let bench = ebs_bench::experiments::engine_bench::run(quick);
    ebs_bench::write_artifact("engine_bench.csv", &bench.to_csv()).expect("engine_bench.csv");
    println!("{bench}");
}
