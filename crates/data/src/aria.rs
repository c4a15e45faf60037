//! Aria* (§5.1.1, Appendix A.3): a synthetic stand-in for Microsoft's
//! production service-request telemetry log. The schema matches the
//! appendix; the headline skew property from §1 — the most popular of 167
//! `AppInfo_Version` values holds almost half the rows — is reproduced with
//! a Zipf(1.7) draw. Sorted by `TenantId` by default.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use ps3_query::{AggExpr, ScalarExpr};
use ps3_storage::table::TableBuilder;
use ps3_storage::{ColumnMeta, ColumnType, Layout, Schema, Table};

use crate::dist::{exponential, lognormal, Zipf};
use crate::workload::WorkloadSpec;

const NETWORK_TYPES: [&str; 4] = ["Ethernet", "Unknown", "WiFi", "cellular"];
/// Number of distinct application versions (paper: 167).
pub const NUM_VERSIONS: usize = 167;
/// Number of tenants.
pub const NUM_TENANTS: usize = 60;
/// Number of time zones.
pub const NUM_TIMEZONES: usize = 30;

/// Generate the telemetry log in ingestion-time order.
pub fn generate(rows: usize, seed: u64) -> Table {
    let schema = Schema::new(vec![
        ColumnMeta::new("records_received_count", ColumnType::Numeric),
        ColumnMeta::new("records_tried_to_send_count", ColumnType::Numeric),
        ColumnMeta::new("records_sent_count", ColumnType::Numeric),
        ColumnMeta::new("olsize", ColumnType::Numeric),
        ColumnMeta::new("ol_w", ColumnType::Numeric),
        ColumnMeta::new("infl", ColumnType::Numeric),
        ColumnMeta::new("PipelineInfo_IngestionTime", ColumnType::Numeric),
        ColumnMeta::new("TenantId", ColumnType::Categorical),
        ColumnMeta::new("AppInfo_Version", ColumnType::Categorical),
        ColumnMeta::new("UserInfo_TimeZone", ColumnType::Categorical),
        ColumnMeta::new("DeviceInfo_NetworkType", ColumnType::Categorical),
    ]);
    let mut b = TableBuilder::new(schema);
    let mut rng = StdRng::seed_from_u64(seed);
    // Zipf(1.7) over 167 versions puts ≈ 48% of mass on rank 0, matching
    // "the most popular application version … accounts for almost half".
    let z_version = Zipf::new(NUM_VERSIONS, 1.7);
    let z_tenant = Zipf::new(NUM_TENANTS, 0.9);
    let z_tz = Zipf::new(NUM_TIMEZONES, 1.0);
    // Each label is formatted once, not once per row.
    let tenants: Vec<String> = (0..NUM_TENANTS).map(|t| format!("tenant-{t:03}")).collect();
    let versions: Vec<String> = (0..NUM_VERSIONS).map(|v| format!("v4.{v}.0")).collect();
    let time_zones: Vec<String> = (0..NUM_TIMEZONES)
        .map(|z| format!("UTC{:+03}", z as i64 - 12))
        .collect();

    let mut ingestion = 0.0f64;
    for _ in 0..rows {
        ingestion += exponential(&mut rng, 0.5); // arrivals: ~2 events/sec
        let received = exponential(&mut rng, 40.0).ceil();
        let tried = (received * rng.gen_range(0.6..1.0_f64)).floor();
        let sent = (tried * rng.gen_range(0.8..1.0_f64)).floor();
        let tenant = z_tenant.sample(&mut rng);
        // Tenant shapes payload sizes: big tenants send bigger batches.
        let olsize = lognormal(&mut rng, 6.0 + (tenant % 7) as f64 * 0.4, 1.2);
        b.push_row(
            &[
                received,
                tried,
                sent,
                olsize,
                olsize * rng.gen_range(0.1..0.9_f64),
                exponential(&mut rng, 3.0),
                ingestion,
            ],
            &[
                &tenants[tenant],
                &versions[z_version.sample(&mut rng)],
                &time_zones[z_tz.sample(&mut rng)],
                NETWORK_TYPES[z_tenant.sample(&mut rng) % 4],
            ],
        );
    }
    b.finish()
}

/// The §5.1.2 workload specification for Aria*.
pub fn workload_spec(table: &Table, seed: u64) -> WorkloadSpec {
    let s = table.schema();
    let col = |n: &str| s.expect_col(n);
    let received = ScalarExpr::col(col("records_received_count"));
    let sent = ScalarExpr::col(col("records_sent_count"));
    let aggregates = vec![
        AggExpr::sum(received.clone()),
        AggExpr::sum(sent.clone()),
        AggExpr::sum(received.clone().sub(sent.clone())),
        AggExpr::count(),
        AggExpr::avg(ScalarExpr::col(col("olsize"))),
        AggExpr::sum(ScalarExpr::col(col("olsize"))),
        AggExpr::avg(ScalarExpr::col(col("infl"))),
    ];
    let group_by_columnsets = vec![
        vec![col("AppInfo_Version")],
        vec![col("DeviceInfo_NetworkType")],
        vec![col("UserInfo_TimeZone")],
        vec![col("TenantId")],
        vec![col("DeviceInfo_NetworkType"), col("UserInfo_TimeZone")],
    ];
    let pred_cols = [
        "records_received_count",
        "records_tried_to_send_count",
        "records_sent_count",
        "olsize",
        "ol_w",
        "infl",
        "PipelineInfo_IngestionTime",
        "TenantId",
        "AppInfo_Version",
        "UserInfo_TimeZone",
        "DeviceInfo_NetworkType",
    ]
    .map(col);
    WorkloadSpec::build(table, aggregates, group_by_columnsets, &pred_cols, seed)
}

/// Paper default: sorted by `TenantId`.
pub fn default_layout(table: &Table) -> Layout {
    Layout::sorted(table.schema().expect_col("TenantId"))
}

/// Figure-6 alternates: sorted by version and by ingestion time.
pub fn alt_layouts(table: &Table) -> Vec<(String, Layout)> {
    let s = table.schema();
    vec![
        (
            "AppInfo_Version".to_owned(),
            Layout::sorted(s.expect_col("AppInfo_Version")),
        ),
        (
            "IngestionTime".to_owned(),
            Layout::sorted(s.expect_col("PipelineInfo_IngestionTime")),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_skew_matches_paper() {
        let t = generate(20_000, 1);
        let (codes, _) = t.categorical(t.schema().expect_col("AppInfo_Version"));
        let mut counts = std::collections::HashMap::new();
        for &c in codes {
            *counts.entry(c).or_insert(0usize) += 1;
        }
        let max = *counts.values().max().unwrap();
        let frac = max as f64 / 20_000.0;
        assert!(
            (0.38..0.6).contains(&frac),
            "top version holds {frac}, want ~0.48"
        );
    }

    #[test]
    fn send_counts_are_ordered() {
        let t = generate(1000, 2);
        let s = t.schema();
        let received = t.numeric(s.expect_col("records_received_count"));
        let tried = t.numeric(s.expect_col("records_tried_to_send_count"));
        let sent = t.numeric(s.expect_col("records_sent_count"));
        for i in 0..1000 {
            assert!(sent[i] <= tried[i] + 1e-9);
            assert!(tried[i] <= received[i] + 1e-9);
        }
    }

    #[test]
    fn ingestion_time_is_monotone_in_ingest_order() {
        let t = generate(500, 3);
        let ts = t.numeric(t.schema().expect_col("PipelineInfo_IngestionTime"));
        for w in ts.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn schema_matches_appendix() {
        let t = generate(100, 4);
        let s = t.schema();
        assert_eq!(s.numeric_like_cols().len(), 7);
        assert_eq!(s.cols_of_type(ColumnType::Categorical).len(), 4);
        assert!(s.col_id("AppInfo_Version").is_some());
    }

    #[test]
    fn spec_and_layouts() {
        let t = generate(300, 5);
        let spec = workload_spec(&t, 1);
        assert!(spec.aggregates.len() >= 5);
        assert_eq!(alt_layouts(&t).len(), 2);
        // Default layout groups tenants together.
        let sorted = default_layout(&t).apply(&t);
        let (codes, dict) = sorted.categorical(sorted.schema().expect_col("TenantId"));
        let mut last = "";
        let mut switches = 0;
        for &c in codes {
            let v = dict.value(c);
            if v != last {
                switches += 1;
                last = v;
            }
        }
        // Sorted: number of value switches == number of distinct tenants.
        assert!(switches <= NUM_TENANTS);
    }
}
