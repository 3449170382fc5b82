//! Regenerates Figure 2. Usage: `fig2 [--scale=smoke|default|full]`.

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

use ulc_bench::{fig2, maybe_write_json, Scale};

fn main() {
    let scale = Scale::from_args();
    let cells = fig2::run(scale);
    maybe_write_json(&cells);
    print!("{}", fig2::render(&cells));
}
