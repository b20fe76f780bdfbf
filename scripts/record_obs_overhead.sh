#!/usr/bin/env bash
# Pins the observability layer's runtime cost: builds the tree twice
# (-DAPAMM_OBS=ON with its default-on phase accumulation, per-thread event
# rings, and numerical-health monitor; -DAPAMM_OBS=OFF with every macro
# compiled out), runs the prepack and conv micro benches in both, and writes
# BENCH_obs_overhead.json with the ON/OFF time ratio per workload. The
# acceptance budget is <= 2% on the summed timed work; the script exits
# nonzero when the measurement blows it.
#
# Usage: scripts/record_obs_overhead.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_obs_overhead.json}"
BUDGET="${APAMM_OBS_BUDGET:-1.02}"
PREPACK_ARGS=(--batches=256 --dim=1024 --reps=3 --algos=classical,bini322)
CONV_ARGS=(--batch=2 --reps=2 --scale=4)

GEN=()
command -v ninja >/dev/null && GEN=(-G Ninja)

for mode in on off; do
  flag=OFF
  [ "$mode" = on ] && flag=ON
  cmake -B "build-obs-$mode" "${GEN[@]}" -DCMAKE_BUILD_TYPE=Release \
    -DAPAMM_OBS=$flag >/dev/null
  cmake --build "build-obs-$mode" --target micro_prepack micro_conv >/dev/null
  echo "== micro_prepack (obs $mode) =="
  "./build-obs-$mode/bench/micro_prepack" "${PREPACK_ARGS[@]}" \
    --json="/tmp/apamm_prepack_$mode.json"
  echo "== micro_conv (obs $mode) =="
  "./build-obs-$mode/bench/micro_conv" "${CONV_ARGS[@]}" \
    --json="/tmp/apamm_conv_$mode.json"
done

python3 - "$OUT" "$BUDGET" <<'EOF'
import json, sys

out_path, budget = sys.argv[1], float(sys.argv[2])

def prepack_seconds(path):
    rows = json.load(open(path))["rows"]
    return sum(r["plain_seconds"] + r["prepacked_seconds"] + r["fused_seconds"]
               for r in rows)

def conv_seconds(path):
    rows = json.load(open(path))["rows"]
    return sum(r["seed_seconds"] + r["planned_seconds"]
               for r in rows if r["layer"] != "total")

rows, on_total, off_total = [], 0.0, 0.0
for name, sec in (("micro_prepack", prepack_seconds), ("micro_conv", conv_seconds)):
    on = sec(f"/tmp/apamm_{name.split('_')[1]}_on.json")
    off = sec(f"/tmp/apamm_{name.split('_')[1]}_off.json")
    on_total += on
    off_total += off
    rows.append({"workload": name, "off_seconds": round(off, 6),
                 "on_seconds": round(on, 6),
                 "overhead_ratio": round(on / off, 4)})
ratio = on_total / off_total
rows.append({"workload": "total", "off_seconds": round(off_total, 6),
             "on_seconds": round(on_total, 6), "overhead_ratio": round(ratio, 4)})

doc = {"bench": "obs_overhead", "budget_ratio": budget, "rows": rows}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}: total overhead ratio {ratio:.4f} (budget {budget})")
sys.exit(0 if ratio <= budget else 1)
EOF
