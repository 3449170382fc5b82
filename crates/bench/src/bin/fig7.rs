//! Regenerates Figure 7. Usage: `fig7 [--scale=smoke|default|full]`.

use ulc_bench::{fig7, maybe_write_json, Scale};

fn main() {
    let scale = Scale::from_args();
    let points = fig7::run(scale);
    maybe_write_json(&points);
    print!("{}", fig7::render(&points));
    if std::env::args().any(|a| a == "--detail") {
        print!("\n{}", fig7::render_detail(&points));
    }
}
