//! `bench perf`: prints the model cost of the reproduction's hot paths
//! as plain-text tables — the record committed as
//! `docs/perf_tables.txt` and diffed in CI by `scripts/model_record.sh`.
//!
//! ```text
//! cargo run -p cc-bench --release --bin perf
//! cargo run -p cc-bench --release --bin perf --features count-allocs
//! ```
//!
//! Takes no flags. Every case runs twice and the binary panics if the
//! two runs' model costs differ. With `--features count-allocs` the cost
//! and sketch tables gain `allocs`/`alloc_bytes` columns (the committed
//! record is the default build).

use cc_bench::cli::Usage;
use cc_bench::outln;
use cc_bench::perf::perf_tables;

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: cc_profile::alloc::CountingAlloc = cc_profile::alloc::CountingAlloc;

const USAGE: Usage = Usage {
    line: "perf",
    switches: &[],
    valued: &[],
    positional: false,
};

fn main() {
    USAGE.parse();
    for table in perf_tables() {
        outln!("{table}");
    }
}
