//! Regenerates Table 1. Usage: `table1 [--scale=smoke|default|full]`.

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

use ulc_bench::{table1, Scale};

fn main() {
    let scale = Scale::from_args();
    print!("{}", table1::render(&table1::run(scale)));
}
