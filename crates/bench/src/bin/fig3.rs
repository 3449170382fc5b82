//! Regenerates Figure 3. Usage: `fig3 [--scale=smoke|default|full]`.

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

use ulc_bench::{fig3, maybe_write_json, Scale};

fn main() {
    let scale = Scale::from_args();
    let curves = fig3::run(scale);
    maybe_write_json(&curves);
    print!("{}", fig3::render(&curves));
}
