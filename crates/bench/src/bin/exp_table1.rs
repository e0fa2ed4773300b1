//! Reproduce Table 1: the machine configuration.
use rda_machine::MachineConfig;

fn main() {
    let m = MachineConfig::xeon_e5_2420();
    println!("Table 1 — Machine configuration (simulated)");
    println!("{}", m.to_table());
    println!(
        "(latencies: L2 {} cy, LLC {} cy, DRAM {} cy; switch cost {} cy)",
        m.l2_hit_cycles, m.llc_hit_cycles, m.dram_cycles, m.context_switch_cycles
    );
}
