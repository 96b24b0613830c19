//! Plain-text output helpers: the binaries print the same rows/series the
//! paper's figures and tables report.

use crate::harness::ScenarioResult;
use crate::report::TableSection;

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

/// Prints a captured table as tab-separated rows under its title.
pub fn print_table(table: &TableSection) {
    println!("# {}", table.title);
    println!("{}", table.headers.join("\t"));
    for row in &table.rows {
        println!("{}", row.join("\t"));
    }
}

/// Prints the standard block for one scenario run: series, events, and the
/// abort/latency summary the paper's text quotes.
pub fn print_scenario(result: &ScenarioResult) {
    println!("## engine: {}", result.engine);
    print_series(&format!("{}_tps", result.engine), &result.tps);
    print_events(&result.events);
    println!(
        "summary\tcommits={}\tmigration_aborts={}\tww_aborts={}\tother_aborts={}",
        result.commits, result.migration_aborts, result.ww_aborts, result.other_aborts
    );
    println!(
        "summary\tbase_latency_ms={:.3}\tlatency_increase_ms={:.3}",
        result.base_latency.as_secs_f64() * 1e3,
        result.latency_increase.as_secs_f64() * 1e3
    );
    println!(
        "summary\tmigration_total_s={:.2}\ttuples_copied={}\trecords_replayed={}\tforced_aborts={}\tvalidation_conflicts={}\tdowntime_ms={:.1}\tpulls={}",
        result.migration.total.as_secs_f64(),
        result.migration.tuples_copied,
        result.migration.records_replayed,
        result.migration.forced_aborts,
        result.migration.validation_conflicts,
        result.migration.downtime.as_secs_f64() * 1e3,
        result.migration.pulls,
    );
    if let Some(batch) = &result.batch {
        println!(
            "batch\tcommitted={}\taborted_attempts={}\tabort_ratio={:.2}\ttuples_per_s_before={:.0}\ttuples_per_s_during={:.0}",
            batch.committed,
            batch.aborted_attempts,
            batch.abort_ratio,
            result.batch_tps_before,
            result.batch_tps_during,
        );
    }
    if let Some(ok) = result.consistency_ok {
        println!("consistency_check\t{}", if ok { "PASS" } else { "FAIL" });
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
        print_table(&TableSection::new(
            "t",
            &["a", "b"],
            vec![vec!["1".into(), "2".into()]],
        ));
        print_scenario(&ScenarioResult::default());
    }
}
