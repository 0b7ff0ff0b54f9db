#!/usr/bin/env bash
# Reproducible benchmarks (see DESIGN.md §13 and §14).
#
# Four suites, selected with -s:
#
#   engine (default): BenchmarkEngine — the frozen three-scenario suite in
#   internal/netsim/engine_bench_test.go, where each op advances a warmed
#   simulation by one simulated second. The record carries per scenario the
#   best-of-count wall time per simulated second, live events per simulated
#   second, ns/event, events/sec of wall time and allocs/event.
#
#   backends: BenchmarkBackendScenario — the packet engine and the fluid
#   fast path each running the same complete scenarios
#   (internal/exp/backend_bench_test.go). The record carries per scenario
#   each backend's ns per scenario and scenarios per second, plus the
#   packet/fluid speedup.
#
#   topology: BenchmarkTopology — the same flows over a single bottleneck
#   and over the 3-link parking-lot chain whose middle link is that
#   bottleneck (internal/netsim/topology_bench_test.go). Same per-scenario
#   fields as the engine suite, plus the chain/single ns-per-event ratio —
#   the per-hop cost of multi-link forwarding.
#
#   fluid: BenchmarkFluidScenario — complete fresh fluid scenarios, New plus
#   Run over the whole duration (internal/fluid/bench_test.go): the
#   adoption dynamics' 9-group payoff spec and the 40 Mbps 2v2 figure point.
#   The record carries per scenario the best-of-count ns per scenario, ns
#   per integration step, scenarios per second and allocations per scenario.
#
# Every record carries the git SHA, go version and benchmark settings.
#
# Usage:
#   ./scripts/bench.sh                  # engine record to stdout
#   ./scripts/bench.sh -s backends -o BENCH_0007.json -l fluid-fast-path
#                                       # append the record to a JSON array
#   ./scripts/bench.sh -s fluid         # fluid step-kernel record
#   BENCH_TIME=60x BENCH_COUNT=1 ./scripts/bench.sh   # quicker, noisier
#
# The -o file holds a JSON array of records; successive runs append, so a
# baseline measured on one commit and a candidate measured on another live
# in the same file and any consumer can compute ratios.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=""
LABEL="current"
SUITE="engine"
while getopts "o:l:s:" opt; do
	case "$opt" in
	o) OUT=$OPTARG ;;
	l) LABEL=$OPTARG ;;
	s) SUITE=$OPTARG ;;
	*) echo "usage: $0 [-s engine|backends|topology|fluid] [-o out.json] [-l label]" >&2; exit 2 ;;
	esac
done

case "$SUITE" in
engine)   BENCH_TIME=${BENCH_TIME:-600x} ;;
backends) BENCH_TIME=${BENCH_TIME:-2x} ;;
topology) BENCH_TIME=${BENCH_TIME:-600x} ;;
fluid)    BENCH_TIME=${BENCH_TIME:-20x} ;;
*) echo "bench.sh: unknown suite '$SUITE' (want engine, backends, topology or fluid)" >&2; exit 2 ;;
esac
BENCH_COUNT=${BENCH_COUNT:-3}
SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
DIRTY=false
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then DIRTY=true; fi
GOVER=$(go env GOVERSION)
DATE=$(date -u +%Y-%m-%dT%H:%M:%SZ)

# emit prints a record to stdout, or appends it to the JSON array in $OUT:
# drop the closing bracket line, join with a comma, re-terminate.
emit() {
	if [ -z "$OUT" ]; then
		printf '%s\n' "$1"
		exit 0
	fi
	if [ ! -s "$OUT" ]; then
		printf '[\n%s\n]\n' "$1" >"$OUT"
	else
		tmp=$(mktemp)
		sed '$d' "$OUT" >"$tmp"
		{ cat "$tmp"; printf ',\n%s\n]\n' "$1"; } >"$OUT.new"
		mv "$OUT.new" "$OUT"
		rm -f "$tmp"
	fi
	echo "appended $LABEL $SUITE record to $OUT" >&2
	exit 0
}

if [ "$SUITE" = backends ]; then
	RAW=$(go test ./internal/exp -run '^$' -bench BenchmarkBackendScenario \
		-benchtime "$BENCH_TIME" -benchmem -count "$BENCH_COUNT")

	RECORD=$(printf '%s\n' "$RAW" | awk \
		-v label="$LABEL" -v sha="$SHA" -v dirty="$DIRTY" -v gover="$GOVER" \
		-v date="$DATE" -v benchtime="$BENCH_TIME" -v count="$BENCH_COUNT" '
	/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
	/^BenchmarkBackendScenario\// {
		name = $1
		sub(/^BenchmarkBackendScenario\//, "", name)
		sub(/-[0-9]+$/, "", name)
		split(name, parts, "/")
		scen = parts[1]; bk = parts[2]
		ns = $3
		key = scen SUBSEP bk
		if (!(key in best) || ns < best[key]) best[key] = ns
		if (!(scen in seen)) { order[++n] = scen; seen[scen] = 1 }
	}
	END {
		printf "  {\n"
		printf "    \"label\": \"%s\",\n", label
		printf "    \"suite\": \"backends\",\n"
		printf "    \"git_sha\": \"%s\",\n", sha
		printf "    \"dirty\": %s,\n", dirty
		printf "    \"date\": \"%s\",\n", date
		printf "    \"go\": \"%s\",\n", gover
		printf "    \"cpu\": \"%s\",\n", cpu
		printf "    \"benchtime\": \"%s\",\n", benchtime
		printf "    \"count\": %s,\n", count
		printf "    \"scenarios\": [\n"
		maxsp = 0
		for (i = 1; i <= n; i++) {
			scen = order[i]
			pns = best[scen SUBSEP "packet"]; fns = best[scen SUBSEP "fluid"]
			sp = (fns > 0 ? pns / fns : 0)
			if (sp > maxsp) maxsp = sp
			printf "      {\n"
			printf "        \"scenario\": \"%s\",\n", scen
			printf "        \"packet_ns_per_scenario\": %.0f,\n", pns
			printf "        \"fluid_ns_per_scenario\": %.0f,\n", fns
			printf "        \"packet_scenarios_per_second\": %.2f,\n", 1e9 / pns
			printf "        \"fluid_scenarios_per_second\": %.2f,\n", 1e9 / fns
			printf "        \"speedup\": %.1f\n", sp
			printf "      }%s\n", (i < n ? "," : "")
		}
		printf "    ],\n"
		printf "    \"max_speedup\": %.1f\n", maxsp
		printf "  }"
	}')

	emit "$RECORD"
fi

if [ "$SUITE" = topology ]; then
	RAW=$(go test ./internal/netsim -run '^$' -bench BenchmarkTopology \
		-benchtime "$BENCH_TIME" -benchmem -count "$BENCH_COUNT")

	RECORD=$(printf '%s\n' "$RAW" | awk \
		-v label="$LABEL" -v sha="$SHA" -v dirty="$DIRTY" -v gover="$GOVER" \
		-v date="$DATE" -v benchtime="$BENCH_TIME" -v count="$BENCH_COUNT" '
	/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
	/^BenchmarkTopology\// {
		name = $1
		sub(/^BenchmarkTopology\//, "", name)
		sub(/-[0-9]+$/, "", name)
		ns = $3; ev = $5; bytes = $7; allocs = $9
		if (!(name in best) || ns < best[name]) {
			best[name] = ns; events[name] = ev
			bop[name] = bytes; aop[name] = allocs
			if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
		}
	}
	END {
		printf "  {\n"
		printf "    \"label\": \"%s\",\n", label
		printf "    \"suite\": \"topology\",\n"
		printf "    \"git_sha\": \"%s\",\n", sha
		printf "    \"dirty\": %s,\n", dirty
		printf "    \"date\": \"%s\",\n", date
		printf "    \"go\": \"%s\",\n", gover
		printf "    \"cpu\": \"%s\",\n", cpu
		printf "    \"benchtime\": \"%s\",\n", benchtime
		printf "    \"count\": %s,\n", count
		printf "    \"scenarios\": [\n"
		for (i = 1; i <= n; i++) {
			name = order[i]
			ns = best[name]; ev = events[name]
			printf "      {\n"
			printf "        \"scenario\": \"%s\",\n", name
			printf "        \"ns_per_sim_second\": %d,\n", ns
			printf "        \"events_per_sim_second\": %d,\n", ev
			printf "        \"ns_per_event\": %.2f,\n", ns / ev
			printf "        \"events_per_wall_second\": %d,\n", ev * 1e9 / ns
			printf "        \"allocs_per_event\": %.4f,\n", aop[name] / ev
			printf "        \"bytes_per_op\": %s\n", bop[name]
			printf "      }%s\n", (i < n ? "," : "")
		}
		printf "    ],\n"
		s = best["single"] / events["single"]
		c = best["chain3"] / events["chain3"]
		printf "    \"chain_ns_per_event_over_single\": %.2f\n", (s > 0 ? c / s : 0)
		printf "  }"
	}')

	emit "$RECORD"
fi

if [ "$SUITE" = fluid ]; then
	RAW=$(go test ./internal/fluid -run '^$' -bench BenchmarkFluidScenario \
		-benchtime "$BENCH_TIME" -benchmem -count "$BENCH_COUNT")

	RECORD=$(printf '%s\n' "$RAW" | awk \
		-v label="$LABEL" -v sha="$SHA" -v dirty="$DIRTY" -v gover="$GOVER" \
		-v date="$DATE" -v benchtime="$BENCH_TIME" -v count="$BENCH_COUNT" '
	/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
	/^BenchmarkFluidScenario\// {
		name = $1
		sub(/^BenchmarkFluidScenario\//, "", name)
		sub(/-[0-9]+$/, "", name)
		delete v
		for (i = 3; i < NF; i += 2) v[$(i + 1)] = $i
		ns = v["ns/scenario"]
		if (!(name in best) || ns < best[name]) {
			best[name] = ns; step[name] = v["ns/step"]
			bop[name] = v["B/op"]; aop[name] = v["allocs/op"]
			if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
		}
	}
	END {
		printf "  {\n"
		printf "    \"label\": \"%s\",\n", label
		printf "    \"suite\": \"fluid\",\n"
		printf "    \"git_sha\": \"%s\",\n", sha
		printf "    \"dirty\": %s,\n", dirty
		printf "    \"date\": \"%s\",\n", date
		printf "    \"go\": \"%s\",\n", gover
		printf "    \"cpu\": \"%s\",\n", cpu
		printf "    \"benchtime\": \"%s\",\n", benchtime
		printf "    \"count\": %s,\n", count
		printf "    \"scenarios\": [\n"
		for (i = 1; i <= n; i++) {
			name = order[i]
			printf "      {\n"
			printf "        \"scenario\": \"%s\",\n", name
			printf "        \"ns_per_scenario\": %.0f,\n", best[name]
			printf "        \"ns_per_step\": %.2f,\n", step[name]
			printf "        \"scenarios_per_second\": %.2f,\n", 1e9 / best[name]
			printf "        \"allocs_per_scenario\": %s,\n", aop[name]
			printf "        \"bytes_per_scenario\": %s\n", bop[name]
			printf "      }%s\n", (i < n ? "," : "")
		}
		printf "    ]\n"
		printf "  }"
	}')

	emit "$RECORD"
fi

RAW=$(go test ./internal/netsim -run '^$' -bench BenchmarkEngine \
	-benchtime "$BENCH_TIME" -benchmem -count "$BENCH_COUNT")

RECORD=$(printf '%s\n' "$RAW" | awk \
	-v label="$LABEL" -v sha="$SHA" -v dirty="$DIRTY" -v gover="$GOVER" \
	-v date="$DATE" -v benchtime="$BENCH_TIME" -v count="$BENCH_COUNT" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^BenchmarkEngine\// {
	name = $1
	sub(/^BenchmarkEngine\//, "", name)
	sub(/-[0-9]+$/, "", name)
	ns = $3; ev = $5; bytes = $7; allocs = $9
	if (!(name in best) || ns < best[name]) {
		best[name] = ns; events[name] = ev
		bop[name] = bytes; aop[name] = allocs
		if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
	}
}
END {
	printf "  {\n"
	printf "    \"label\": \"%s\",\n", label
	printf "    \"git_sha\": \"%s\",\n", sha
	printf "    \"dirty\": %s,\n", dirty
	printf "    \"date\": \"%s\",\n", date
	printf "    \"go\": \"%s\",\n", gover
	printf "    \"cpu\": \"%s\",\n", cpu
	printf "    \"benchtime\": \"%s\",\n", benchtime
	printf "    \"count\": %s,\n", count
	printf "    \"scenarios\": [\n"
	tns = 0; tev = 0
	for (i = 1; i <= n; i++) {
		name = order[i]
		ns = best[name]; ev = events[name]
		tns += ns; tev += ev
		printf "      {\n"
		printf "        \"scenario\": \"%s\",\n", name
		printf "        \"ns_per_sim_second\": %d,\n", ns
		printf "        \"events_per_sim_second\": %d,\n", ev
		printf "        \"ns_per_event\": %.2f,\n", ns / ev
		printf "        \"events_per_wall_second\": %d,\n", ev * 1e9 / ns
		printf "        \"allocs_per_event\": %.4f,\n", aop[name] / ev
		printf "        \"bytes_per_op\": %s\n", bop[name]
		printf "      }%s\n", (i < n ? "," : "")
	}
	printf "    ],\n"
	printf "    \"suite_events_per_wall_second\": %d\n", tev * 1e9 / tns
	printf "  }"
}')

emit "$RECORD"
