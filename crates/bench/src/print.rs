//! Plain-text output helpers: the binaries print the same rows/series the
//! paper's figures and tables report.

use crate::harness::Side;
use crate::report::{ScenarioReport, TableSection};

/// Prints a per-second series as `t <tab> value` rows.
pub fn print_series(label: &str, values: &[f64]) {
    println!("# series: {label}");
    println!("t_s\t{label}");
    for (t, v) in values.iter().enumerate() {
        println!("{t}\t{v:.0}");
    }
}

/// Prints overlay events (`name @ seconds`).
pub fn print_events(events: &[(String, f64)]) {
    println!("# events");
    for (name, t) in events {
        println!("event\t{name}\t{t:.2}");
    }
}

/// Prints a table's title and its tab-separated headers; the driver
/// prints each row under them as its leg finishes.
pub fn print_table_head(table: &TableSection) {
    println!("# {}", table.title);
    println!("{}", table.headers.join("\t"));
}

/// Prints the standard block for one scenario run: series, events, the
/// abort/latency summary the paper's text quotes, and what the run's side
/// client reported.
pub fn print_scenario(result: &ScenarioReport, side: &Side) {
    let ms = |us: u64| us as f64 / 1e3;
    println!("## engine: {}", result.engine);
    print_series(&format!("{}_tps", result.engine), &result.tps);
    print_events(&result.events);
    println!(
        "summary\tcommits={}\tmigration_aborts={}\tww_aborts={}\tother_aborts={}",
        result.commits, result.migration_aborts, result.ww_aborts, result.other_aborts
    );
    println!(
        "summary\tbase_latency_ms={:.3}\tlatency_increase_ms={:.3}",
        ms(result.base_latency_us),
        ms(result.latency_increase_us)
    );
    let migration = &result.migration;
    println!(
        "summary\tmigration_total_s={:.2}\ttuples_copied={}\trecords_replayed={}\tforced_aborts={}\tvalidation_conflicts={}\tdowntime_ms={:.1}\tpulls={}",
        ms(migration.total_us) / 1e3,
        migration.tuples_copied,
        migration.records_replayed,
        migration.forced_aborts,
        migration.validation_conflicts,
        ms(migration.downtime_us),
        migration.pulls,
    );
    match side {
        Side::None => {}
        Side::Batch { report, tps } => println!(
            "batch\tcommitted={}\taborted_attempts={}\tabort_ratio={:.2}\ttuples_per_s_before={:.0}\ttuples_per_s_during={:.0}",
            report.committed, report.aborted_attempts, report.abort_ratio, tps.0, tps.1,
        ),
        Side::Consistency(ok) => {
            println!("consistency_check\t{}", if *ok { "PASS" } else { "FAIL" })
        }
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printing_does_not_panic() {
        print_series("x", &[1.0, 2.0]);
        print_events(&[("a".into(), 1.5)]);
        print_table_head(&TableSection::new(
            "t",
            &["a", "b"],
            vec![vec!["1".into(), "2".into()]],
        ));
        print_scenario(&ScenarioReport::default(), &Side::Consistency(true));
    }
}
