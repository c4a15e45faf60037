#!/usr/bin/env bash
# Perf-trajectory gate for the micro benches.
#
# Usage: bench_gate.sh <raw_tsv> <out_json> [baseline_json]
#
#   raw_tsv       lines of "bench_name<TAB>ns_per_iter" appended by the
#                 vendored criterion when PS3_BENCH_TSV is set
#   out_json      where to write the flat {"name": ns, ...} trajectory
#                 (the repo-root BENCH_micro.json)
#   baseline_json optional committed baseline; when given, exit non-zero if
#                 any bench present in both files got more than MAX_RATIO
#                 (default 2.0) times slower. Benches whose baseline is
#                 under MIN_NS (default 10000 = 10µs) are reported but not
#                 gated: the vendored criterion does no statistical
#                 analysis, so sub-10µs numbers are noise-dominated.
#
# Environment knobs (the complete list — README's CI section points here):
#
#   PS3_BENCH_TSV    (read by the *benches*, not this script) absolute path
#                    the vendored criterion appends "name<TAB>ns" lines to;
#                    the CI step points it at ci-timings/bench-raw.tsv and
#                    then hands that file to this script as <raw_tsv>.
#   PS3_BENCH_ITERS  (read by the benches) timed iterations per bench
#                    (default 10); CI uses 5 to keep wall-clock down — the
#                    2x MAX_RATIO margin absorbs the extra noise.
#   MAX_RATIO        regression threshold vs. the baseline (default 2.0).
#   MIN_NS           baselines below this are report-only (default 10000).
#   WARM_MIN_SPEEDUP minimum train/train_cold ÷ train/retrain_warm ratio
#                    before failing (default 10): the incremental retrain
#                    must stay an order of magnitude under a cold rebuild.
#   BOOT_MIN_SPEEDUP minimum train/train_cold ÷ persist/boot_from_artifact
#                    ratio before failing (default 10): booting a frozen
#                    artifact must stay an order of magnitude under
#                    retraining, or the persistence layer has lost its
#                    reason to exist.
#   PIPELINE_MIN_SPEEDUP minimum net/roundtrip_cold ÷
#                    net/roundtrip_pipelined_x16 ratio before failing
#                    (default 4): the pipelined row records *per-request*
#                    cost of a 16-deep batch, which must amortize the
#                    wire + wakeup overhead well under one cold roundtrip.
set -euo pipefail

raw="$1"
out="$2"
baseline="${3:-}"
max_ratio="${MAX_RATIO:-2.0}"
min_ns="${MIN_NS:-10000}"

# Benches the gate insists on seeing in the raw output: losing one (a
# renamed group, a deleted bench target) silently un-gates a hot path, so
# absence is a failure, not a skip. Sub-MIN_NS members are still
# report-only for the *ratio* check — presence is what's enforced here.
required_benches="
kernel/compile_query
kernel/cmp_mask_partition
kernel/in_mask_partition
kernel/fused_partition_scan
kernel/fused_partition_scan_simd
query_time/execute_one_partition
query_time/execute_grouped_1col
query_time/execute_grouped_2col
query_time/execute_grouped_167codes
query_time/execute_grouped_expr
query_time/query_artifacts
query_time/kmeans_64x8
query_time/hac_ward_64x8
cluster/assign_step_simd
cluster/select_512_tiny_q8
train/train_cold
train/retrain_warm
picker/full_pick_25pct
picker/importance_funnel_512
router/answer_cold
router/answer_cached
router_fanin/fanin_8_tenants
net/roundtrip_cold
net/roundtrip_cached
net/roundtrip_pipelined_x16
planner/plan_cold
planner/plan_warm
planner/stream_roundtrip
persist/freeze
persist/open_artifact
persist/thaw_cold
persist/boot_from_artifact
stats/build_table
sketch/quantile_update_fused
sketch/distinct_update
sketch/merge_64
"

if [ ! -s "$raw" ]; then
    echo "bench_gate: no raw measurements at $raw" >&2
    exit 1
fi

missing=0
for b in $required_benches; do
    if ! cut -f1 "$raw" | grep -qx "$b"; then
        echo "bench_gate: required bench '$b' missing from $raw" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    exit 1
fi

# The runner's core count and git revision ride along as `_meta/` entries:
# trajectory numbers are meaningless without knowing the hardware they came
# from (the committed baseline was measured in a 1-CPU build container) or
# which source they measured. The ratio loop below skips `_meta/` keys.
cores="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
git_rev="$(git -C "$(dirname "$0")/.." rev-parse --short HEAD 2>/dev/null || echo unknown)"

# TSV -> flat JSON object, one "name": ns pair per line (the fixed layout
# lets the comparison below parse it back with sed alone — no jq needed).
{
    echo '{'
    awk -F'\t' '{printf "  \"%s\": %s,\n", $1, $2}' "$raw"
    printf '  "_meta/cores": %s,\n' "$cores"
    printf '  "_meta/git_rev": "%s"\n}\n' "$git_rev"
} >"$out"
echo "bench_gate: wrote $(wc -l <"$raw") benches to $out (cores: $cores, rev: $git_rev)"

# Warm-retrain check: the incremental path exists to be an order of
# magnitude under a cold rebuild on an unchanged table; if it drifts back
# toward cold-training cost the reuse is broken, whatever the absolute
# numbers are. WARM_MIN_SPEEDUP loosens/tightens the bar (default 10).
warm_min_speedup="${WARM_MIN_SPEEDUP:-10}"
cold_ns=$(awk -F'\t' '$1 == "train/train_cold" {print $2; exit}' "$raw")
warm_ns=$(awk -F'\t' '$1 == "train/retrain_warm" {print $2; exit}' "$raw")
awk -v c="$cold_ns" -v w="$warm_ns" -v min="$warm_min_speedup" 'BEGIN {
    speedup = w > 0 ? c / w : 0;
    printf "bench_gate: warm retrain %d ns vs cold train %d ns (%.1fx)\n", w, c, speedup;
    if (speedup < min) {
        printf "bench_gate: FAIL — train/retrain_warm is under %.0fx faster than train/train_cold\n", min;
        exit 1;
    }
}' || exit 1

# Cold-boot check: thawing an artifact and answering the first query must
# stay an order of magnitude under training from scratch — that ratio is
# the persistence layer's contract. BOOT_MIN_SPEEDUP adjusts the bar
# (default 10).
boot_min_speedup="${BOOT_MIN_SPEEDUP:-10}"
boot_ns=$(awk -F'\t' '$1 == "persist/boot_from_artifact" {print $2; exit}' "$raw")
awk -v c="$cold_ns" -v b="$boot_ns" -v min="$boot_min_speedup" 'BEGIN {
    speedup = b > 0 ? c / b : 0;
    printf "bench_gate: artifact boot %d ns vs cold train %d ns (%.1fx)\n", b, c, speedup;
    if (speedup < min) {
        printf "bench_gate: FAIL — persist/boot_from_artifact is under %.0fx faster than train/train_cold\n", min;
        exit 1;
    }
}' || exit 1

# Pipelining check: the pipelined row is per-request cost of a 16-deep
# batch on a warm key; batching must amortize the syscall + event-loop
# wakeup overhead well below one full cold roundtrip, or the vectored
# batched-I/O path has stopped paying for itself. PIPELINE_MIN_SPEEDUP
# adjusts the bar (default 4).
pipeline_min_speedup="${PIPELINE_MIN_SPEEDUP:-4}"
net_cold_ns=$(awk -F'\t' '$1 == "net/roundtrip_cold" {print $2; exit}' "$raw")
piped_ns=$(awk -F'\t' '$1 == "net/roundtrip_pipelined_x16" {print $2; exit}' "$raw")
awk -v c="$net_cold_ns" -v p="$piped_ns" -v min="$pipeline_min_speedup" 'BEGIN {
    speedup = p > 0 ? c / p : 0;
    printf "bench_gate: pipelined request %d ns vs cold roundtrip %d ns (%.1fx)\n", p, c, speedup;
    if (speedup < min) {
        printf "bench_gate: FAIL — net/roundtrip_pipelined_x16 is under %.0fx cheaper than net/roundtrip_cold per request\n", min;
        exit 1;
    }
}' || exit 1

if [ -z "$baseline" ] || [ ! -f "$baseline" ]; then
    echo "bench_gate: no baseline to compare against; done"
    exit 0
fi

base_tsv=$(mktemp)
trap 'rm -f "$base_tsv"' EXIT
sed -n 's/^  "\(.*\)": \([0-9][0-9]*\),\{0,1\}$/\1\t\2/p' "$baseline" >"$base_tsv"

awk -F'\t' -v max_ratio="$max_ratio" -v min_ns="$min_ns" '
    $1 ~ /^_meta\// { next }
    NR == FNR { base[$1] = $2; next }
    ($1 in base) {
        ratio = base[$1] > 0 ? $2 / base[$1] : 1;
        gated = base[$1] >= min_ns;
        flag = "";
        if (ratio > max_ratio) flag = gated ? "  << REGRESSION" : "  (ungated: baseline < min_ns)";
        printf "%-50s %14d ns  (baseline %14d ns, %.2fx)%s\n", $1, $2, base[$1], ratio, flag;
        if (gated && ratio > max_ratio) bad = 1;
    }
    END {
        if (bad) {
            printf "bench_gate: FAIL — at least one bench regressed more than %.1fx\n", max_ratio;
            exit 1;
        }
        print "bench_gate: OK";
    }
' "$base_tsv" "$raw"
