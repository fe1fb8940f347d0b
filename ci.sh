#!/usr/bin/env bash
# Repository CI gate: formatting, lints, then the tier-1 build+test pass.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# One entry point per stage: a `pub fn NAME_obs` may not have a `pub fn
# NAME` sibling (the null-handle forwarders PR 17 deleted). The one allowed
# pair is `place_components`, whose plain form the frozen benchmark calls
# (benchmark/src/replay.rs:300); it goes with the benchmark-only rename PR.
echo "==> entry-point gate: no NAME / NAME_obs twins"
pub_fns="$(grep -rhoE 'pub fn [a-z_0-9]+' crates/*/src | sed 's/^pub fn //' | sort -u)"
twins="$(echo "$pub_fns" | sed -n 's/_obs$//p' | grep -Fxf - <(echo "$pub_fns") \
    | grep -vx 'place_components' || true)"
[ -z "$twins" ] \
    || { echo "stage functions with both a plain and an _obs form:" $twins; exit 1; }

# One pre-implementation path: outside the backend (`crates/pnr`) and the
# flow (`crates/flow`), product code places and routes a module only
# through the flow's stages (`build_component_db`, `pre_implement`), never
# by calling the engines itself. Product code is each file up to its first
# `#[cfg(test)]`, comment lines skipped, as ci/loc.sh cuts it.
echo "==> pre-implementation gate: only the flow places and routes modules"
ooc_calls="$(find crates src vendor -name '*.rs' -not -path '*/tests/*' \
    -not -path 'crates/pnr/*' -not -path 'crates/flow/*' -print0 |
    xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*\/\// { next }
        /(place|route)_module_obs\(/ { print FILENAME ":" FNR ": " $0 }')"
[ -z "$ooc_calls" ] \
    || { echo "module placed or routed outside the flow's stages:"; echo "$ooc_calls"; exit 1; }

# Dependency direction: `pi-lint` checks the model, so it has no business
# depending on the generators — nor on the backend: the linter checks
# routes, it does not re-route. The other way, the flow runs no lint: its
# one `pi_lint` name is the `PreImplReport::lint` field, always `None`,
# which the benchmark's replay still builds.
echo "==> dependency-direction gate: the linter depends on no generator, the flow on no lint"
if grep -nE 'pi-(synth|pnr)' crates/lint/Cargo.toml; then
    echo "pi-lint depends on a generator or the backend"; exit 1
fi
if grep -rn 'pi_lint' crates/flow/src | grep -vF 'pub lint: Option<pi_lint::LintReport>,'; then
    echo "crates/flow/src names pi_lint beyond the PreImplReport::lint field"; exit 1
fi

# One module judge: `Module::defects` in pi-netlist decides every netlist
# rule, so pi-lint holds no loop search or budget of its own, and a pin
# budget (a cell's fan-in or fan-out bound) is defined only beside it.
echo "==> judge gate: netlist rules live in pi-netlist"
if grep -rnE 'fn tarjan|const [A-Z0-9_]*_BUDGET\b' crates/lint/src; then
    echo "crates/lint/src decides a netlist rule of its own"; exit 1
fi
if grep -rnE 'const [A-Z0-9_]*(_BUDGET|_FANIN|_FANOUT)\b' --include='*.rs' \
    crates src tests examples | grep -v '^crates/netlist/src/'; then
    echo "a pin budget is defined outside crates/netlist/src"; exit 1
fi

# The component placer has no unplace-and-retry loop (DESIGN.md §8): each
# component takes its cheapest legal candidate, so neither the loop's
# knobs nor its event may come back.
echo "==> placer gate: no threshold-retry loop"
if grep -rnE 'timing_threshold|max_retries|threshold_retry|StitchRetry' crates src; then
    echo "the component placer's retry loop is deleted; its names may not return"; exit 1
fi

# The flow stops linting (DESIGN.md §12): its verdict is its judges, and
# `pilint` is the one place a lint runs, so the flow's lint policy, its
# error variant and its stage gates may not come back.
echo "==> flow-lint gate: no lint policy inside the flow"
if grep -rnE 'with_lint|LintFailed|lint_gate_db|network_gate' crates src; then
    echo "the flow's lint gates are deleted; their names may not return"; exit 1
fi

# One network judge for every dialect (DESIGN.md §15): the JSON frontend
# lowers and `Network::defects` decides every graph rule, so the importer's
# own join-channel code may not come back.
echo "==> network-judge gate: no join rule in the JSON frontend"
if grep -rnE 'JOIN_CHANNEL_MISMATCH|join-channel-mismatch' crates src; then
    echo "the importer's join-channel check is retired; its names may not return"; exit 1
fi

# The router negotiates congestion only (DESIGN.md §8, §14): no timing
# reads a route, so slack ordering, criticality pricing and their counter
# may not come back.
echo "==> router gate: no timing feedback in the negotiation"
if grep -rnE 'criticality_order|net_slacks|CRIT_TARGET_RATIO|criticality_reroutes|SlackFn' \
    crates src; then
    echo "the router's timing feedback is deleted; its names may not return"; exit 1
fi

# One serialization mechanism: every JSON artifact the flow writes or reads
# is a derived serde struct (a hand-written `Serialize` impl forwards to a
# derived view where the wire form has computed or untagged values), so no
# JSON tree is assembled map by map. The `crates/bench` ledger bins are
# exempt: they read, edit and rewrite whole `BENCH_*.json` documents and
# keep keys they do not know (`pre_pr7_baseline`), which a derive would drop.
echo "==> serialization gate: no hand-built JSON maps"
if grep -rnE '(Value|J)::Map\((Vec::new\(\)|vec!|root\))' \
    crates/{obs,lint,flow,serve,model}/src src/bin; then
    echo "hand-built JSON map above: derive Serialize on the data instead"; exit 1
fi

# Ledger gate: a `BENCH_*.json` / `BENCH_*.flowstat.txt` that a doc or this
# script names must exist at the repository root — a citation of a ledger
# nobody checked in is a number nobody can reproduce.
echo "==> ledger gate: every cited BENCH_* file exists at the repository root"
for f in $(grep -ohE 'BENCH_[a-z]+\.(json|flowstat\.txt)' \
    README.md DESIGN.md EXPERIMENTS.md ci.sh | sort -u); do
    [ -f "$f" ] || { echo "$f is cited but not at the repository root"; exit 1; }
done

echo "==> product lines (ci/loc.sh): $(ci/loc.sh)"

echo "==> tier-1: cargo build --release"
cargo build --release

# Tier-1 runs under both scheduler regimes: the forced-sequential path
# (PI_THREADS=1) and the real worker pool (PI_THREADS=4). Results must be
# identical either way — only the execution schedule differs.
echo "==> tier-1: PI_THREADS=1 cargo test -q"
PI_THREADS=1 cargo test -q

echo "==> tier-1: PI_THREADS=4 cargo test -q"
PI_THREADS=4 cargo test -q

# Tier-1 is the root package only; the crates' own unit tests
# (`pnr::{route,timing,compile}`, `stitch::verify`, `lint::*`, the vendored
# derives) run here.
echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Warm/cold smoke of the persistent component-database cache: the second
# run against the same --db-dir must serve every checkpoint from disk
# (zero pre-implementations) and assemble the identical accelerator.
echo "==> db-cache smoke: cold vs warm compose"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
printf 'network smoke\ninput 1x16x16\nconv c kernel=3 out=4\nfc f out=8\n' \
    > "$smoke_dir/arch.txt"
cold_out="$(cargo run --release --quiet --bin preimpl -- \
    compose "$smoke_dir/arch.txt" --db-dir "$smoke_dir/db" --seeds 2)"
warm_out="$(cargo run --release --quiet --bin preimpl -- \
    compose "$smoke_dir/arch.txt" --db-dir "$smoke_dir/db" --seeds 2)"
echo "$cold_out" | grep -F 'db-cache: 0 hits, 2 misses' >/dev/null \
    || { echo "cold run did not miss: $cold_out"; exit 1; }
echo "$warm_out" | grep -F 'db-cache: 2 hits, 0 misses' >/dev/null \
    || { echo "warm run did not hit: $warm_out"; exit 1; }
cold_line="$(echo "$cold_out" | grep '^assembled ')"
warm_line="$(echo "$warm_out" | grep '^assembled ')"
[ "$cold_line" = "$warm_line" ] \
    || { echo "warm result differs: '$cold_line' vs '$warm_line'"; exit 1; }
echo "    cold missed, warm hit, identical result: $warm_line"
# A removed flag, subcommand or positional must fail loudly with the usage
# text on stderr, not be ignored. The component database is `--db-dir`
# only: a database directory given as a positional is a surplus argument.
for gone in "preimpl compose $smoke_dir/arch.txt --db-dir $smoke_dir/db --router-steiner off" \
    "pilint dataflow models/lenet.json --fifo-depth 8" \
    "flowstat trend --history x" \
    "preimpl compose $smoke_dir/arch.txt $smoke_dir/db" \
    "pilint db $smoke_dir/db" \
    "preimpl stats $smoke_dir/arch.txt junk" \
    "preimpl compose $smoke_dir/arch.txt --fifo-autosize on" \
    "pilint dataflow models/lenet.json --autosize" \
    "pilint dataflow models/lenet.json" \
    "preimpl compose $smoke_dir/arch.txt --lint" \
    "preimpl stats $smoke_dir/arch.txt --lint" \
    "preimpl compose $smoke_dir/arch.txt --deny-warnings"; do
    gone_err="$(cargo run --release --quiet --bin ${gone%% *} -- ${gone#* } 2>&1 >/dev/null)" \
        && { echo "removed surface was accepted: $gone"; exit 1; }
    echo "$gone_err" | grep -F "usage: ${gone%% *}" >/dev/null \
        || { echo "'$gone' rejected without the usage text: $gone_err"; exit 1; }
done
# Likewise a retired lint code: unknown, and named on stderr.
for code in PL0140 PL0141 PL0152 PL0302 PL0308 PL0400 PL0401 PL0402 PL0403; do
    retired_err="$(cargo run --release --quiet --bin pilint -- \
        model models/lenet.json --allow "$code" 2>&1 >/dev/null)" \
        && { echo "retired lint code $code was accepted"; exit 1; }
    echo "$retired_err" | grep -F "unknown lint code $code" >/dev/null \
        || { echo "$code rejected without naming it: $retired_err"; exit 1; }
done
# One network judge: the flow refuses exactly what the lint denies. Each
# malformed network below — join operands that disagree and a zero-channel
# conv (both also as `--model` JSON descriptors), a one-operand join, a
# ReLU fed by two operands, a join fed twice by one producer — is an error
# naming its defect in `preimpl`, whatever the format, and the `PL02xx`
# code that folds the same defect in `pilint` (exit 2).
echo "==> network-judge parity: preimpl refuses what pilint denies"
printf 'network mismatch\ninput 1x8x8\nconv a kernel=3 pad=1 out=2\nconv b kernel=3 pad=1 out=4 from=input\nadd j from=a,b\n' \
    > "$smoke_dir/mismatch.txt"
printf 'network unary\ninput 1x8x8\nconv a kernel=3 pad=1 out=2\nadd j from=a\n' \
    > "$smoke_dir/unary.txt"
printf 'network zero\ninput 1x8x8\nconv a kernel=3 out=0\n' > "$smoke_dir/zero.txt"
printf 'network fanin\ninput 1x8x8\nconv a kernel=3 pad=1 out=2\nconv b kernel=3 pad=1 out=2 from=input\nrelu r from=a,b\n' \
    > "$smoke_dir/fanin.txt"
printf 'network twice\ninput 1x8x8\nconv a kernel=3 pad=1 out=2\nadd j from=a,a\n' \
    > "$smoke_dir/twice.txt"
printf '{"name": "zero", "input": {"name": "input", "shape": [1, 8, 8]}, "nodes": [{"name": "a", "op": "Conv", "inputs": ["input"], "attrs": {"kernel": 3, "out": 0}}], "outputs": ["a"]}\n' \
    > "$smoke_dir/zero.json"
printf '{"name": "mismatch", "input": {"name": "input", "shape": [1, 8, 8]}, "nodes": [{"name": "a", "op": "Conv", "inputs": ["input"], "attrs": {"kernel": 3, "out": 2, "pad": 1}}, {"name": "b", "op": "Conv", "inputs": ["input"], "attrs": {"kernel": 3, "out": 4, "pad": 1}}, {"name": "j", "op": "Add", "inputs": ["a", "b"]}], "outputs": ["j"]}\n' \
    > "$smoke_dir/mismatch.json"
while read -r kind file code defect; do
    input="$smoke_dir/$file"
    [ "$kind" = model ] && flag=--model || flag=
    stats_err="$(cargo run --release --quiet --bin preimpl -- stats $flag "$input" 2>&1 >/dev/null)" \
        && { echo "preimpl stats accepted $file"; exit 1; }
    echo "$stats_err" | grep -F "$defect" >/dev/null \
        || { echo "preimpl refused $file without naming '$defect': $stats_err"; exit 1; }
    set +e
    judged="$(cargo run --release --quiet --bin pilint -- "$kind" "$input" 2>/dev/null)"
    judged_rc=$?
    set -e
    { [ "$judged_rc" -eq 2 ] && echo "$judged" | grep -F "error[$code]" >/dev/null; } \
        || { echo "pilint $kind $file exited $judged_rc, want 2 with $code: $judged"; exit 1; }
done <<'PROBES'
archdef mismatch.txt PL0201 disagree on the interface shape
model mismatch.json PL0201 disagree on the interface shape
archdef unary.txt PL0205 has 1 input stream(s)
archdef zero.txt PL0205 out_channels=0
model zero.json PL0205 out_channels=0
archdef fanin.txt PL0205 has 2 input stream(s)
archdef twice.txt PL0205 has 2 input streams from 1 producer
PROBES
# `pilint db` with a network lints the network too: against a valid
# database, the mismatched join is its PL0201, not a silent "0 errors".
set +e
db_judged="$(cargo run --release --quiet --bin pilint -- \
    db "$smoke_dir/mismatch.txt" --db-dir "$smoke_dir/db" 2>/dev/null)"
db_judged_rc=$?
set -e
{ [ "$db_judged_rc" -eq 2 ] && echo "$db_judged" | grep -F 'error[PL0201]' >/dev/null; } \
    || { echo "pilint db on a rejected network exited $db_judged_rc, want 2 with PL0201: $db_judged"; exit 1; }
echo "    every malformed network refused by preimpl, naming its defect, and denied by pilint (exit 2)"

# flowstat determinism gate: two LeNet-5 runs with the same seed (each
# against a FRESH --db-dir — a warm cache changes the event stream) must
# produce traces whose aggregated reports diff to zero deltas, and a
# perturbed run (different seed) must produce a non-empty diff that trips
# the --fail-on-regression gate with a non-zero exit.
echo "==> flowstat gate: same-seed LeNet runs diff to zero deltas"
fs_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$fs_dir"' EXIT
printf 'network lenet5\ninput 1x32x32\nconv c1 kernel=5 out=6\npool p1 window=2\nconv c2 kernel=5 out=16\npool p2 window=2\nfc f1 out=120\nfc f2 out=84\nfc f3 out=10\n' \
    > "$fs_dir/lenet.txt"
cargo run --release --quiet --bin preimpl -- \
    compose "$fs_dir/lenet.txt" --db-dir "$fs_dir/db1" --seeds 1 \
    --trace "$fs_dir/t1.jsonl" >/dev/null
cargo run --release --quiet --bin preimpl -- \
    compose "$fs_dir/lenet.txt" --db-dir "$fs_dir/db2" --seeds 1 \
    --trace "$fs_dir/t2.jsonl" >/dev/null
diff_out="$(cargo run --release --quiet --bin flowstat -- \
    diff "$fs_dir/t1.jsonl" "$fs_dir/t2.jsonl")"
echo "$diff_out" | grep -F 'identical' >/dev/null \
    || { echo "same-seed flowstat diff not empty: $diff_out"; exit 1; }
cargo run --release --quiet --bin flowstat -- summarize "$fs_dir/t1.jsonl" \
    > "$fs_dir/s1.txt"
cargo run --release --quiet --bin flowstat -- summarize "$fs_dir/t2.jsonl" \
    > "$fs_dir/s2.txt"
cmp -s "$fs_dir/s1.txt" "$fs_dir/s2.txt" \
    || { echo "same-seed flowstat summaries not byte-identical"; exit 1; }
echo "    $diff_out"

echo "==> flowstat gate: perturbed run trips --fail-on-regression"
cargo run --release --quiet --bin preimpl -- \
    compose "$fs_dir/lenet.txt" --db-dir "$fs_dir/db3" --seeds 2 \
    --trace "$fs_dir/t3.jsonl" >/dev/null
pert_out="$(cargo run --release --quiet --bin flowstat -- \
    diff "$fs_dir/t1.jsonl" "$fs_dir/t3.jsonl")"
echo "$pert_out" | grep -F 'identical' >/dev/null \
    && { echo "perturbed flowstat diff unexpectedly empty"; exit 1; }
if cargo run --release --quiet --bin flowstat -- \
    diff "$fs_dir/t1.jsonl" "$fs_dir/t3.jsonl" --fail-on-regression 0 \
    >/dev/null 2>&1; then
    echo "perturbed diff did not trip --fail-on-regression"; exit 1
fi
top_out="$(cargo run --release --quiet --bin flowstat -- \
    summarize "$fs_dir/t1.jsonl" --top 5)"
echo "$top_out" | grep -F 'flowstat hot spans: top' >/dev/null \
    || { echo "summarize --top produced no hot-span table: $top_out"; exit 1; }
trace_lint="$(cargo run --release --quiet --bin pilint -- trace "$fs_dir/t1.jsonl" --json)"
echo "$trace_lint" | grep -F '"errors": 0' >/dev/null \
    || { echo "recorded trace did not lint clean: $trace_lint"; exit 1; }
echo "    perturbed diff non-empty and gate exits non-zero, hot spans render, trace lints clean"

# Router gate: the router bench must show no drift against its ledger on
# LeNet-5 (run over a copy of the checked-in `BENCH_router.json`, the bin
# self-gates with exit 2 when expansions or passes rise or Fmax falls
# against the ledger's last point with the same seeds), produce
# byte-identical work telemetry at PI_THREADS=1 and PI_THREADS=4, and
# hold the line against the checked-in seed trace
# `ci/router_lenet.seed.jsonl` — zero deltas, no silent drift in router
# work per pass.
echo "==> router gate: no drift against the ledger, thread determinism, seed snapshot"
rt_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$fs_dir" "$rt_dir"' EXIT
cp BENCH_router.json "$rt_dir/r1.json"
cp BENCH_router.json "$rt_dir/r4.json"
PI_THREADS=1 cargo run --release --quiet -p pi-bench --bin router -- \
    --networks lenet --seeds 1 --out "$rt_dir/r1.json" \
    --trace "$rt_dir/r1.jsonl" >/dev/null \
    || { echo "router bench drifted from the BENCH_router.json ledger (PI_THREADS=1)"; exit 1; }
PI_THREADS=4 cargo run --release --quiet -p pi-bench --bin router -- \
    --networks lenet --seeds 1 --out "$rt_dir/r4.json" \
    --trace "$rt_dir/r4.jsonl" >/dev/null \
    || { echo "router bench drifted from the BENCH_router.json ledger (PI_THREADS=4)"; exit 1; }
rt_diff="$(cargo run --release --quiet --bin flowstat -- \
    diff "$rt_dir/r1.jsonl" "$rt_dir/r4.jsonl")"
echo "$rt_diff" | grep -F 'identical' >/dev/null \
    || { echo "router telemetry differs across PI_THREADS: $rt_diff"; exit 1; }
cargo run --release --quiet --bin flowstat -- summarize "$rt_dir/r1.jsonl" \
    > "$rt_dir/rs1.txt"
cargo run --release --quiet --bin flowstat -- summarize "$rt_dir/r4.jsonl" \
    > "$rt_dir/rs4.txt"
cmp -s "$rt_dir/rs1.txt" "$rt_dir/rs4.txt" \
    || { echo "router summaries not byte-identical across PI_THREADS"; exit 1; }
seed_diff="$(cargo run --release --quiet --bin flowstat -- \
    diff ci/router_lenet.seed.jsonl "$rt_dir/r1.jsonl" --fail-on-regression 0)" \
    || { echo "router trace regressed vs checked-in seed: $seed_diff"; exit 1; }
echo "$seed_diff" | grep -F 'identical' >/dev/null \
    || { echo "router trace drifted from checked-in seed: $seed_diff"; exit 1; }
echo "    no drift vs ledger, traces identical across threads and vs seed"

# pilint gate: both bundled models must lint clean under --deny-warnings
# (checked through the stable --json summary keys, not the text renderer),
# and a deliberately broken archdef must trip the gate with the shared
# exit-code convention (exactly 2: "ran fine, findings denied" — not 1,
# which would mean the tool itself failed).
echo "==> pilint gate: bundled models clean, broken fixture exits 2"
lint_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$fs_dir" "$rt_dir" "$lint_dir"' EXIT
{
    printf 'network vgg16\ninput 3x224x224\n'
    for block in '1 64 2' '2 128 2' '3 256 3' '4 512 3' '5 512 3'; do
        set -- $block
        for c in $(seq 1 "$3"); do
            printf 'conv conv%s_%s kernel=3 stride=1 pad=1 out=%s\nrelu relu%s_%s\n' \
                "$1" "$c" "$2" "$1" "$c"
        done
        printf 'pool pool%s window=2\n' "$1"
    done
    printf 'fc fc1 out=4096\nrelu relu_fc1\nfc fc2 out=4096\nrelu relu_fc2\nfc fc3 out=1000\n'
} > "$lint_dir/vgg16.txt"
lenet_lint="$(cargo run --release --quiet --bin pilint -- \
    archdef "$fs_dir/lenet.txt" --deny-warnings --json)" \
    || { echo "LeNet-5 did not lint clean"; exit 1; }
echo "$lenet_lint" | grep -F '"errors": 0' >/dev/null \
    || { echo "LeNet-5 JSON summary lacks zero errors: $lenet_lint"; exit 1; }
vgg_lint="$(cargo run --release --quiet --bin pilint -- \
    archdef "$lint_dir/vgg16.txt" --deny-warnings --json)" \
    || { echo "VGG-16 did not lint clean"; exit 1; }
echo "$vgg_lint" | grep -F '"warnings": 0' >/dev/null \
    || { echo "VGG-16 JSON summary lacks zero warnings: $vgg_lint"; exit 1; }
printf 'network broken\ninput 1x4x4\nconv c kernel=9 out=2\n' > "$lint_dir/broken.txt"
set +e
cargo run --release --quiet --bin pilint -- \
    archdef "$lint_dir/broken.txt" >/dev/null 2>&1
lint_rc=$?
set -e
[ "$lint_rc" -eq 2 ] \
    || { echo "broken fixture exited $lint_rc, want 2"; exit 1; }
echo "    both models clean, broken fixture tripped the gate (exit 2)"

# pilint db gate: the LeNet --db-dir cache built above lints clean through
# the verified lookup, and a missing --db-dir is an error naming the path —
# never an empty database, and never created (`DbCache::open` would).
echo "==> pilint db gate: the LeNet cache lints clean, a missing --db-dir is an error"
db_lint="$(cargo run --release --quiet --bin pilint -- \
    db "$fs_dir/lenet.txt" --db-dir "$fs_dir/db1" --json)" \
    || { echo "LeNet cache did not lint clean: $db_lint"; exit 1; }
echo "$db_lint" | grep -F '"errors": 0' >/dev/null \
    || { echo "LeNet cache JSON summary lacks zero errors: $db_lint"; exit 1; }
missing_err="$(cargo run --release --quiet --bin pilint -- \
    db --db-dir "$lint_dir/no_db" 2>&1 >/dev/null)" \
    && { echo "pilint db accepted a missing --db-dir"; exit 1; }
echo "$missing_err" | grep -F "$lint_dir/no_db" >/dev/null \
    || { echo "missing --db-dir rejected without naming it: $missing_err"; exit 1; }
[ ! -e "$lint_dir/no_db" ] \
    || { echo "pilint db created the missing --db-dir"; exit 1; }
echo "    LeNet cache clean, missing --db-dir named and not created"

# pilint design gate: the flow assembles, routes and judges LeNet from the
# cache built above, and the design it returns lints clean with warnings
# denied (exit 0).
echo "==> pilint design gate: the assembled LeNet lints clean"
design_lint="$(cargo run --release --quiet --bin pilint -- \
    design "$fs_dir/lenet.txt" --db-dir "$fs_dir/db1" --deny-warnings --json)" \
    || { echo "assembled LeNet did not lint clean: $design_lint"; exit 1; }
echo "$design_lint" | grep -F '"errors": 0' >/dev/null \
    || { echo "assembled LeNet JSON summary lacks zero errors: $design_lint"; exit 1; }
echo "    assembled LeNet clean under --deny-warnings"

# Model-descriptor gate: every checked-in descriptor under models/ must
# import and lint clean (exit 0) through `pilint model`, and the LeNet
# that enters through the JSON descriptor must hold the line against the
# checked-in seed trace `ci/model_lenet.seed.jsonl` — zero deltas, so the
# descriptor frontend cannot silently change what the flow builds.
echo "==> model gate: descriptors lint clean, descriptor LeNet matches seed"
mdl_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$fs_dir" "$rt_dir" "$lint_dir" "$mdl_dir"' EXIT
for m in models/*; do
    m_lint="$(cargo run --release --quiet --bin pilint -- \
        model "$m" --deny-warnings --json)" \
        || { echo "descriptor $m did not lint clean"; exit 1; }
    echo "$m_lint" | grep -F '"errors": 0' >/dev/null \
        || { echo "descriptor $m JSON summary lacks zero errors: $m_lint"; exit 1; }
done
cargo run --release --quiet --bin preimpl -- \
    compose --model models/lenet.json --db-dir "$mdl_dir/db" --seeds 1 \
    --trace "$mdl_dir/lenet_model.jsonl" >/dev/null
mdl_diff="$(cargo run --release --quiet --bin flowstat -- \
    diff ci/model_lenet.seed.jsonl "$mdl_dir/lenet_model.jsonl" \
    --fail-on-regression 0)" \
    || { echo "descriptor LeNet regressed vs checked-in seed: $mdl_diff"; exit 1; }
echo "$mdl_diff" | grep -F 'identical' >/dev/null \
    || { echo "descriptor LeNet drifted from checked-in seed: $mdl_diff"; exit 1; }
echo "    all descriptors lint clean, descriptor LeNet matches the seed trace"

# pi-serve gate: a daemon on an ephemeral port must serve the same LeNet-5
# compose job `preimpl` runs locally — the remote trace diffs to zero
# deltas against the local cold run above — and a warm follow-up must be
# served entirely from the daemon's shared component cache.
echo "==> pi-serve gate: remote compose matches local run"
srv_dir="$(mktemp -d)"
serve_pid=""
trap 'rm -rf "$smoke_dir" "$fs_dir" "$rt_dir" "$lint_dir" "$mdl_dir" "$srv_dir"; [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true' EXIT
cargo run --release --quiet --bin pi-serve -- \
    serve --bind 127.0.0.1:0 --db-dir "$srv_dir/db" --workers 2 \
    > "$srv_dir/serve.log" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q 'listening on' "$srv_dir/serve.log" 2>/dev/null && break
    sleep 0.1
done
serve_addr="$(sed -n 's/^pi-serve listening on //p' "$srv_dir/serve.log")"
[ -n "$serve_addr" ] \
    || { echo "pi-serve did not start:"; cat "$srv_dir/serve.log"; exit 1; }
remote_out="$(cargo run --release --quiet --bin preimpl -- \
    compose "$fs_dir/lenet.txt" --remote "$serve_addr" --seeds 1 \
    --trace "$srv_dir/remote.jsonl")"
echo "$remote_out" | grep -q '^assembled ' \
    || { echo "remote compose produced no summary: $remote_out"; exit 1; }
remote_diff="$(cargo run --release --quiet --bin flowstat -- \
    diff "$fs_dir/t1.jsonl" "$srv_dir/remote.jsonl" --fail-on-regression 0)" \
    || { echo "remote trace regressed vs local: $remote_diff"; exit 1; }
echo "$remote_diff" | grep -F 'identical' >/dev/null \
    || { echo "remote trace differs from local run: $remote_diff"; exit 1; }
# Spliced cross-process report: `--remote --report` tags the job with a
# trace context, fetches the daemon's span tree and splices it under the
# local `serve:request` span. Same seed at PI_THREADS=1 and 4 must write
# byte-identical spliced reports containing the daemon-side span.
PI_THREADS=1 cargo run --release --quiet --bin preimpl -- \
    compose "$fs_dir/lenet.txt" --remote "$serve_addr" --seeds 1 \
    --report "$srv_dir/spliced1.txt" >/dev/null
PI_THREADS=4 cargo run --release --quiet --bin preimpl -- \
    compose "$fs_dir/lenet.txt" --remote "$serve_addr" --seeds 1 \
    --report "$srv_dir/spliced4.txt" >/dev/null
cmp -s "$srv_dir/spliced1.txt" "$srv_dir/spliced4.txt" \
    || { echo "spliced remote reports differ across PI_THREADS"; exit 1; }
grep -q 'serve::job:run' "$srv_dir/spliced1.txt" \
    || { echo "spliced report is missing the daemon-side span tree"; exit 1; }
grep -q 'serve:request' "$srv_dir/spliced1.txt" \
    || { echo "spliced report is missing the client-side request span"; exit 1; }

# Live /metrics exposition: scrape through the CLI (no curl in the image)
# and require every line to be a well-formed Prometheus comment or sample,
# with the farm counters and wallclock histogram present.
cargo run --release --quiet --bin pi-serve -- \
    metrics --addr "$serve_addr" > "$srv_dir/metrics.txt"
awk '
    /^# (TYPE|HELP) / { next }
    /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$/ { next }
    { print "malformed metrics line: " $0; bad = 1 }
    END { exit bad }
' "$srv_dir/metrics.txt" \
    || { echo "metrics exposition failed to parse"; exit 1; }
for metric in pi_serve_jobs_submitted_total pi_serve_jobs_completed_total \
    pi_serve_jobs_coalesced_total pi_serve_queue_depth \
    pi_serve_db_cache_hits_total pi_serve_job_wall_ms_compose_bucket \
    pi_serve_queue_wait_ms_bucket pi_serve_connections_in_flight \
    uptime_seconds; do
    grep -q "^$metric" "$srv_dir/metrics.txt" \
        || { echo "metrics exposition is missing $metric"; exit 1; }
done

warm_remote="$(cargo run --release --quiet --bin preimpl -- \
    build-db "$fs_dir/lenet.txt" --remote "$serve_addr" --seeds 1)"
echo "$warm_remote" | grep -Eq 'db-cache: [1-9][0-9]* hits, 0 misses' \
    || { echo "warm remote job did not hit the shared cache: $warm_remote"; exit 1; }
cargo run --release --quiet --bin pi-serve -- stop --addr "$serve_addr" >/dev/null
wait "$serve_pid"
serve_pid=""
echo "    remote trace identical to local, spliced reports thread-stable,"
echo "    metrics exposition parseable, warm job served from shared cache"

# Eviction smoke: a daemon with a 1-byte budget must evict on every
# insert — the job still completes, and the result's cache counters
# surface the evictions to the client.
echo "==> pi-serve gate: tiny --db-budget-bytes forces eviction"
cargo run --release --quiet --bin pi-serve -- \
    serve --bind 127.0.0.1:0 --db-dir "$srv_dir/tiny" --db-budget-bytes 1 \
    > "$srv_dir/tiny.log" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q 'listening on' "$srv_dir/tiny.log" 2>/dev/null && break
    sleep 0.1
done
tiny_addr="$(sed -n 's/^pi-serve listening on //p' "$srv_dir/tiny.log")"
[ -n "$tiny_addr" ] \
    || { echo "budgeted pi-serve did not start:"; cat "$srv_dir/tiny.log"; exit 1; }
evict_out="$(cargo run --release --quiet --bin preimpl -- \
    compose "$smoke_dir/arch.txt" --remote "$tiny_addr" --seeds 2)"
echo "$evict_out" | grep -q '^assembled ' \
    || { echo "budgeted compose failed: $evict_out"; exit 1; }
echo "$evict_out" | grep -Eq ' [1-9][0-9]* evicted' \
    || { echo "1-byte budget evicted nothing: $evict_out"; exit 1; }
cargo run --release --quiet --bin pi-serve -- stop --addr "$tiny_addr" >/dev/null
wait "$serve_pid"
serve_pid=""
echo "    budgeted daemon completed the job and reported evictions"

# Benchmark gate: `benchmark/` is a workspace of its own that tier-1 never
# compiles, so a crate API change can break the yardstick silently. Build
# it against this tree, run its unit tests and the replay-fidelity test,
# and do the quick run (LeNet only: every op passes the oracle and the
# printed metric names are exactly BENCHMARK.json's). One target dir for
# both, the one run.sh defaults to.
echo "==> benchmark gate: benchmark/ compiles, replay-fidelity holds, quick run clean"
(cd benchmark && CARGO_TARGET_DIR=../.bench_build cargo test --release --offline --quiet) \
    || { echo "benchmark/ tests failed against this tree"; exit 1; }
benchmark/repeat.sh --quick >/dev/null \
    || { echo "benchmark quick run failed (exit $?)"; exit 1; }
echo "    benchmark builds against this tree, replay is faithful, metric names match"

echo "==> ci.sh: all gates passed"
