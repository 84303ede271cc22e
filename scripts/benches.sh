# The committed bench outputs, sourced by scripts/ci.sh (which checks them)
# and scripts/run_all.sh (which regenerates them).

# Benches whose full run (no flags) writes results/BENCH_<name>.json; ab8
# also leaves results/ab8_postmortem_m1.txt and ab11 results/ab11_repro.txt.
# Every file they write is committed and must reproduce byte for byte.
record_benches=(
  ab1_migration_latency ab2_locality_prefetch ab3_split_merge
  ab4_placement_policies ab5_lazy_migration ab6_revocation ab7_recovery
  ab8_partition ab9_overload ab10_autoscale ab11_chaos ab12_memo scale_sim
)

# Benches whose full-run stdout is committed as results/<name>.txt.
stdout_benches=(fig1_filler_migration fig2_imbalanced_pipeline)
