# Convenience targets; `make check` is the one-stop pre-commit gate.

.PHONY: all build test perfbench-test bench bench-smoke bench-check bench-scale scale-smoke batch-smoke fuzz-smoke profile-smoke verify-smoke lookahead-smoke serve-smoke qasm-smoke fmt lint check clean

CLI := _build/default/bin/autobraid_cli.exe

all: build

build:
	dune build @all

test:
	dune runtest

# The benchmark's statistics (medians, quartiles, pair wins) have their own
# unit tests; no bytecode is written into the benchmark's directory.
perfbench-test:
	PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s perfbench -p 'test_*.py'

bench:
	dune exec bench/main.exe

# Formatting is checked only when ocamlformat is available — the repo must
# stay buildable in environments without it.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "fmt: ocamlformat not installed, skipping format check"; \
	fi

# The repository's own inputs must stay diagnostic-free, warnings included;
# the built-in circuits are also scheduled and certified (QL210). The loop
# calls the built binary directly: `build` already produced it, and one
# `dune exec` per input pays a dune lock + rebuild check each time.
lint: build
	@for f in fixtures/*.qasm; do \
		echo "lint $$f"; \
		$(CLI) lint "$$f" --deny warning || exit 1; \
	done
	@for c in qft9 bv12 qaoa12 im12 ghz8 adder8; do \
		echo "lint $$c"; \
		$(CLI) lint "$$c" --deny warning || exit 1; \
		echo "lint $$c --schedule"; \
		$(CLI) lint "$$c" --schedule --deny warning || exit 1; \
	done

# Cross-backend smoke: both communication backends must still run end to
# end and emit the machine-readable snapshot with sane keys. Then the
# dispatcher's error paths, which compile nothing: an unknown section exits
# 2 naming every section, and a --check file whose section has no snapshot
# exits 1.
BENCH_SECTIONS := table1 table2 fig16 fig17 fig18 compile-time ablation \
	planar backends scale scale-smoke verify all

bench-smoke: build
	@out=$$(mktemp); \
	./_build/default/bench/main.exe backends --json "$$out" >/dev/null || exit 1; \
	grep -q '"section": "backends"' "$$out" || { echo "bench-smoke: missing section key"; exit 1; }; \
	grep -q '"braid"' "$$out" || { echo "bench-smoke: missing braid outcome"; exit 1; }; \
	grep -q '"surgery"' "$$out" || { echo "bench-smoke: missing surgery outcome"; exit 1; }; \
	grep -q '"merge_rounds"' "$$out" || { echo "bench-smoke: missing surgery stats"; exit 1; }; \
	./_build/default/bench/main.exe no-such-section > /dev/null 2> "$$out"; \
	[ $$? -eq 2 ] || { echo "bench-smoke: unknown section should exit 2"; exit 1; }; \
	for s in $(BENCH_SECTIONS); do \
		grep -Eq "[ |]$$s[|)]" "$$out" \
			|| { echo "bench-smoke: unknown-section message omits $$s"; cat "$$out"; exit 1; }; \
	done; \
	echo '{"section": "table1"}' > "$$out"; \
	./_build/default/bench/main.exe --check "$$out" > /dev/null; \
	[ $$? -eq 1 ] || { echo "bench-smoke: --check of an ungated section should exit 1"; exit 1; }; \
	rm -f "$$out"; \
	echo "bench-smoke: OK"

# Batch-engine smoke: the fixtures manifest must compile on a 2-worker
# pool, a second pass over the same --cache-dir must replay placements
# from disk, and both passes must emit byte-identical JSONL. A
# --cache-dir under a regular file must exit 2 naming the directory.
batch-smoke: build
	@dir=$$(mktemp -d); \
	touch "$$dir/file"; \
	$(CLI) batch fixtures/batch_manifest.json \
		--cache-dir "$$dir/file/cache" > /dev/null 2> "$$dir/bad.log"; \
	[ $$? -eq 2 ] || { echo "batch-smoke: unusable --cache-dir should exit 2"; \
		cat "$$dir/bad.log"; exit 1; }; \
	grep -qF "$$dir/file/cache" "$$dir/bad.log" \
		|| { echo "batch-smoke: unusable --cache-dir message omits it"; \
		     cat "$$dir/bad.log"; exit 1; }; \
	$(CLI) batch fixtures/batch_manifest.json --jobs 2 \
		--cache-dir "$$dir/cache" -o "$$dir/cold.jsonl" \
		2> "$$dir/cold.log" || { cat "$$dir/cold.log"; exit 1; }; \
	$(CLI) batch fixtures/batch_manifest.json --jobs 2 \
		--cache-dir "$$dir/cache" -o "$$dir/warm.jsonl" \
		2> "$$dir/warm.log" || { cat "$$dir/warm.log"; exit 1; }; \
	cmp "$$dir/cold.jsonl" "$$dir/warm.jsonl" \
		|| { echo "batch-smoke: warm-cache JSONL differs"; exit 1; }; \
	ls "$$dir/cache"/*.placement >/dev/null 2>&1 \
		|| { echo "batch-smoke: no placements persisted"; exit 1; }; \
	grep -q ' 0 misses' "$$dir/warm.log" \
		|| { echo "batch-smoke: warm pass recomputed placements"; \
		     cat "$$dir/warm.log"; exit 1; }; \
	grep -q '"status":"error"' "$$dir/cold.jsonl" \
		&& { echo "batch-smoke: fixtures manifest has failing jobs"; exit 1; }; \
	rm -rf "$$dir"; \
	echo "batch-smoke: OK"

# Property-fuzz smoke: a fixed-seed sweep of the whole registry (trace
# replay, differential backends, engine identities, crash fuzzing).
# Deterministic — a failure here is a stable (seed, case) address; see
# docs/testing.md for the reproduction workflow. Override the case count
# with FUZZ_COUNT (e.g. FUZZ_COUNT=2000 for a deeper local soak).
FUZZ_COUNT ?= 200

fuzz-smoke: build
	$(CLI) fuzz --seed 42 --count $(FUZZ_COUNT)

# QASM front-end smoke: a Table-2 RevLib instance emitted as QASM and
# compiled from that file must certify with the same total cycles and
# rounds as the benchmark compiled by name, and lint must accept the file.
qasm-smoke: build
	@dir=$$(mktemp -d); f="$$dir/urf2_277.qasm"; \
	$(CLI) emit urf2_277 -o "$$f" || exit 1; \
	$(CLI) compile "$$f" --certify > "$$dir/file.out" \
		|| { cat "$$dir/file.out"; exit 1; }; \
	$(CLI) compile urf2_277 --certify > "$$dir/name.out" \
		|| { cat "$$dir/name.out"; exit 1; }; \
	for o in file name; do \
		grep -q ': certified (' "$$dir/$$o.out" \
			|| { echo "qasm-smoke: $$o run not certified"; exit 1; }; \
		grep -E '^\| (total cycles|rounds) ' "$$dir/$$o.out" > "$$dir/$$o.key"; \
	done; \
	[ $$(wc -l < "$$dir/file.key") -eq 2 ] \
		|| { echo "qasm-smoke: missing cycles or rounds"; exit 1; }; \
	cmp -s "$$dir/file.key" "$$dir/name.key" \
		|| { echo "qasm-smoke: file and benchmark runs differ"; \
		     cat "$$dir/file.key" "$$dir/name.key"; exit 1; }; \
	$(CLI) lint "$$f" > /dev/null \
		|| { echo "qasm-smoke: lint rejected $$f"; exit 1; }; \
	rm -rf "$$dir"; \
	echo "qasm-smoke: OK"

# Drift gate: re-measure the committed BENCH snapshots and fail on
# regressions. Both hold only deterministic counts (cycles, rounds,
# certificates, killed mutations), gated at tight tolerance. Compile and
# serving time is bounded by the repository benchmark (perfbench/), not
# here.
bench-check: build
	./_build/default/bench/main.exe --check BENCH_backends.json \
		--check BENCH_verify.json --tolerance 0.02

# Paper-scale drift gate: re-measures the full Table-2 sweep (QFT-100..400,
# adder, RevLib) against the committed BENCH_scale.json — minutes of wall
# time, so it is NOT part of `make check`. Cycle counts and the
# braid_vs_greedy_speedup ratios gate at 2%; the qftN_wall_s keys gate at
# the loose wall band.
bench-scale: build
	./_build/default/bench/main.exe --check BENCH_scale.json --tolerance 0.02

# CI-speed stand-in for bench-scale: the QFT-100 point only, exact-checked
# against the committed sweep inside a wall budget
# (AUTOBRAID_SCALE_BUDGET_S, default 120 s).
scale-smoke: build
	./_build/default/bench/main.exe scale-smoke

# Profiler smoke: the repeated-run report and its Perfetto trace must come
# out structurally sound.
profile-smoke: build
	@out=$$(mktemp); trace=$$(mktemp); \
	$(CLI) profile qft9 --repeat 2 --json --trace-out "$$trace" > "$$out" \
		|| { cat "$$out"; exit 1; }; \
	grep -q '"schema": "autobraid-profile/v1"' "$$out" \
		|| { echo "profile-smoke: missing schema tag"; exit 1; }; \
	grep -q '"phases"' "$$out" \
		|| { echo "profile-smoke: missing phases"; exit 1; }; \
	grep -q '"embed"' "$$out" \
		|| { echo "profile-smoke: missing embed phase"; exit 1; }; \
	grep -q '"stack_finder.first_pass"' "$$out" \
		|| { echo "profile-smoke: missing stack_finder.first_pass timer"; exit 1; }; \
	grep -q '"decompose.lower"' "$$out" \
		|| { echo "profile-smoke: missing decompose.lower timer"; exit 1; }; \
	grep -q '"dag.build"' "$$out" \
		|| { echo "profile-smoke: missing dag.build timer"; exit 1; }; \
	grep -q '"coupling.build"' "$$out" \
		|| { echo "profile-smoke: missing coupling.build timer"; exit 1; }; \
	grep -q '"initial_layout.anneal"' "$$out" \
		|| { echo "profile-smoke: missing initial_layout.anneal timer"; exit 1; }; \
	grep -q '"traceEvents"' "$$trace" \
		|| { echo "profile-smoke: missing traceEvents"; exit 1; }; \
	if command -v jq >/dev/null 2>&1; then \
		jq empty "$$out" || { echo "profile-smoke: report is not JSON"; exit 1; }; \
		jq empty "$$trace" || { echo "profile-smoke: trace is not JSON"; exit 1; }; \
	fi; \
	rm -f "$$out" "$$trace"; \
	echo "profile-smoke: OK"

# Certification smoke: every committed fixture and a mid-size benchmark
# must certify clean through both communication backends (and qft9 through
# lookahead), and the exit policy must match lint's (0 clean / 1 failed
# invariant / 2 bad input). A manifest with one rejected job must name
# it, certify the other jobs and exit 2.
verify-smoke: build
	@for f in fixtures/*.qasm; do \
		echo "verify $$f"; \
		$(CLI) verify "$$f" || exit 1; \
	done
	@for c in qft9 bv12 qaoa12; do \
		echo "verify $$c (braid + surgery)"; \
		$(CLI) verify "$$c" || exit 1; \
		$(CLI) verify "$$c" --backend surgery || exit 1; \
	done
	@echo "verify qft9 (lookahead)"; \
	$(CLI) verify qft9 --backend lookahead || exit 1
	@echo "verify fixtures/batch_manifest.json"; \
	$(CLI) verify fixtures/batch_manifest.json || exit 1
	@$(CLI) verify no-such-circuit >/dev/null 2>&1; \
	[ $$? -eq 2 ] || { echo "verify-smoke: bad input should exit 2"; exit 1; }
	@echo "verify fixtures/verify_mixed_manifest.json (job 1 rejected)"; \
	out=$$(mktemp); err=$$(mktemp); \
	$(CLI) verify fixtures/verify_mixed_manifest.json >"$$out" 2>"$$err"; code=$$?; \
	ok=1; \
	[ $$code -eq 2 ] || { echo "verify-smoke: mixed manifest exited $$code, not 2"; ok=0; }; \
	grep -q 'verify: job 1 (qft9): ' "$$err" || { echo "verify-smoke: rejected job 1 not named"; ok=0; }; \
	grep -q '^qft9: certified' "$$out" && grep -q '^bv12: certified' "$$out" \
		|| { echo "verify-smoke: jobs 0 and 2 not certified"; ok=0; }; \
	rm -f "$$out" "$$err"; [ $$ok -eq 1 ]
	@$(CLI) verify qft9 --json | grep -q '"schema": "autobraid-cert/v1"' \
		|| { echo "verify-smoke: missing certificate schema tag"; exit 1; }
	@echo "verify-smoke: OK"

# Lookahead smoke: the portfolio scheduler must beat plain braiding on
# the long-range family (the committed BENCH_backends.json win) and must
# never be worse anywhere. The returned schedule is the "total cycles"
# table row; the greedy run it raced is the greedy_cycles stat.
lookahead-smoke: build
	@for c in lr16 lr24; do \
		out=$$($(CLI) compile $$c --backend lookahead) || exit 1; \
		total=$$(echo "$$out" | awk -F'|' '/total cycles/ {gsub(/ /,"",$$3); print $$3}'); \
		greedy=$$(echo "$$out" | awk '/greedy_cycles/ {print $$2}'); \
		[ -n "$$total" ] && [ -n "$$greedy" ] \
			|| { echo "lookahead-smoke: $$c missing cycle stats"; exit 1; }; \
		[ "$$total" -le "$$greedy" ] \
			|| { echo "lookahead-smoke: $$c lookahead $$total > braid $$greedy"; exit 1; }; \
	done
	@out=$$($(CLI) compile lr24 --backend lookahead); \
	total=$$(echo "$$out" | awk -F'|' '/total cycles/ {gsub(/ /,"",$$3); print $$3}'); \
	greedy=$$(echo "$$out" | awk '/greedy_cycles/ {print $$2}'); \
	[ "$$total" -lt "$$greedy" ] \
		|| { echo "lookahead-smoke: expected a strict win on lr24 ($$total vs $$greedy)"; exit 1; }
	@$(CLI) compile lr24 --backend compare | grep -q lookahead \
		|| { echo "lookahead-smoke: compare does not include lookahead"; exit 1; }
	@echo "lookahead-smoke: OK"

# Serve smoke: boot the daemon, hit it with two concurrent clients whose
# responses must be byte-identical to a local batch run, check the stats
# endpoint saw the shared cache, exercise admission control on a
# zero-capacity daemon, and drain both cleanly.
serve-smoke: build
	@dir=$$(mktemp -d); sock="$$dir/serve.sock"; \
	$(CLI) serve --socket "$$sock" --jobs 2 --cache-dir "$$dir/cache" \
		2> "$$dir/daemon.log" & pid=$$!; \
	for i in $$(seq 1 100); do [ -S "$$sock" ] && break; sleep 0.1; done; \
	[ -S "$$sock" ] || { echo "serve-smoke: daemon never bound its socket"; \
		cat "$$dir/daemon.log"; exit 1; }; \
	$(CLI) serve --connect "$$sock" --ping | grep -q '"pong"' \
		|| { echo "serve-smoke: ping failed"; exit 1; }; \
	$(CLI) serve --connect "$$sock" --manifest fixtures/batch_manifest.json \
		> "$$dir/a.jsonl" 2> /dev/null & c1=$$!; \
	$(CLI) serve --connect "$$sock" --manifest fixtures/batch_manifest.json \
		> "$$dir/b.jsonl" 2> /dev/null & c2=$$!; \
	wait $$c1 && wait $$c2 \
		|| { echo "serve-smoke: concurrent clients failed"; \
		     cat "$$dir/daemon.log"; exit 1; }; \
	$(CLI) batch fixtures/batch_manifest.json --jobs 2 \
		-o "$$dir/local.jsonl" 2> /dev/null || exit 1; \
	cmp "$$dir/a.jsonl" "$$dir/local.jsonl" \
		|| { echo "serve-smoke: client A diverged from one-shot batch"; exit 1; }; \
	cmp "$$dir/b.jsonl" "$$dir/local.jsonl" \
		|| { echo "serve-smoke: client B diverged from one-shot batch"; exit 1; }; \
	$(CLI) serve --connect "$$sock" --stats > "$$dir/stats.json" || exit 1; \
	grep -q '"memory_hits"' "$$dir/stats.json" \
		|| { echo "serve-smoke: stats missing cache counters"; exit 1; }; \
	grep -q '"serve.request_s"' "$$dir/stats.json" \
		|| { echo "serve-smoke: stats missing latency histogram"; exit 1; }; \
	python3 -c 'import json, sys; s = json.load(open(sys.argv[1])); \
		t = s["telemetry"]; c = t["counters"]; \
		assert any(h["name"] == "serve.queue_wait_s" and "p95" in h \
			for h in t["histograms"]), "no serve.queue_wait_s p95"; \
		assert "serve.cache.misses" in c, "no serve.cache. counters"; \
		bad = [k for k in ("memory_hits", "disk_hits", "misses") \
			if c.get("serve.cache." + k, 0) != s["cache"][k]]; \
		assert not bad, "serve.cache. counters disagree: %s" % bad' \
		"$$dir/stats.json" \
		|| { echo "serve-smoke: stats missing queue-wait p95 or cache verdicts"; exit 1; }; \
	$(CLI) serve --connect "$$sock" --shutdown > /dev/null || exit 1; \
	wait $$pid || { echo "serve-smoke: daemon exited nonzero"; \
		cat "$$dir/daemon.log"; exit 1; }; \
	[ ! -e "$$sock" ] || { echo "serve-smoke: socket not removed on drain"; exit 1; }; \
	sock2="$$dir/tiny.sock"; \
	$(CLI) serve --socket "$$sock2" --jobs 1 --max-pending 0 \
		2>> "$$dir/daemon.log" & pid2=$$!; \
	for i in $$(seq 1 100); do [ -S "$$sock2" ] && break; sleep 0.1; done; \
	$(CLI) serve --connect "$$sock2" qft9 2>&1 | grep -q overloaded \
		|| { echo "serve-smoke: zero-capacity daemon should reject with overloaded"; exit 1; }; \
	$(CLI) serve --connect "$$sock2" --ping | grep -q '"pong"' \
		|| { echo "serve-smoke: daemon unresponsive after overload"; exit 1; }; \
	$(CLI) serve --connect "$$sock2" --shutdown > /dev/null || exit 1; \
	wait $$pid2 || { echo "serve-smoke: overloaded daemon exited nonzero"; exit 1; }; \
	rm -rf "$$dir"; \
	echo "serve-smoke: OK"

check: fmt build test perfbench-test lint bench-smoke bench-check scale-smoke batch-smoke fuzz-smoke profile-smoke verify-smoke lookahead-smoke serve-smoke qasm-smoke
	@echo "check: OK"

clean:
	dune clean
