//! Run every experiment and write a JSON results bundle (none when a
//! headline cell fails: the run prints what it has and exits 1).
use rda_bench::fig12::{ocean_series, render_series, water_series};
use rda_bench::summary::headline;
use rda_bench::{headline_runs_cli, sweep_args_from_env};
use rda_machine::MachineConfig;
use rda_sim::concurrency::{figure13, interference_study};
use rda_sim::overhead::{figure11, granularity_study, N};
use rda_workloads::spec;

fn main() {
    println!(
        "=== Table 1 ===\n{}",
        MachineConfig::xeon_e5_2420().to_table()
    );
    println!("=== Table 2 ===\n{}", spec::table2());

    let r = headline_runs_cli(&sweep_args_from_env());
    if r.errors.is_empty() {
        println!("sweep digest: {:#018x}", r.digest);
    }
    for fig in &r.figures {
        println!("{}", fig.to_text_table());
    }
    // A failed cell ends the run here: the headline numbers need every
    // workload's baseline, and a partial `results.json` would read as a
    // full one.
    r.exit_on_failure();
    let h = headline(&r);
    println!("=== Headline numbers ===\n{h}\n");

    let f11 = granularity_study(N);
    println!("{}", figure11(&f11).to_text_table());

    let water = water_series();
    let ocean = ocean_series();
    println!("=== Figure 12 ===");
    for s in water.iter().chain(ocean.iter()) {
        println!("{}", render_series(s));
    }

    let f13 = interference_study();
    println!("{}", figure13(&f13).to_text_table());

    // Machine-readable bundle.
    use rda_bench::fig12::wss_series_json;
    use rda_metrics::Json;
    let bundle = Json::obj([
        (
            "figures",
            Json::obj([
                ("fig7", r.fig7().to_json()),
                ("fig8", r.fig8().to_json()),
                ("fig9", r.fig9().to_json()),
                ("fig10", r.fig10().to_json()),
                ("fig11", figure11(&f11).to_json()),
                ("fig13", figure13(&f13).to_json()),
                (
                    "fig12",
                    Json::obj([
                        (
                            "water",
                            Json::Arr(water.iter().map(wss_series_json).collect()),
                        ),
                        (
                            "ocean",
                            Json::Arr(ocean.iter().map(wss_series_json).collect()),
                        ),
                    ]),
                ),
            ]),
        ),
        ("headline", h.to_json()),
    ]);
    let path = "results.json";
    std::fs::write(path, bundle.to_string_pretty()).unwrap();
    println!("wrote {path}");
}
