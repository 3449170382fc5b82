//! Regenerates Figure 6. Usage: `fig6 [--scale=smoke|default|full]`.

use ulc_bench::{fig6, maybe_write_json, Scale};

fn main() {
    let scale = Scale::from_args();
    let results = fig6::run(scale);
    maybe_write_json(&results);
    print!("{}", fig6::render(&results));
}
