GO ?= go

.PHONY: all build vet fmt test race race-e2e check equiv32 portable fuzz-smoke bench bench-kernel bench-train bench-feed bench-build bench-check surface size examples clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file in the module and the nested bench/ module is gofmt-clean
# (lists the offenders and fails otherwise).
fmt:
	@out=$$(gofmt -l internal cmd examples bench *.go); \
		if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# -short skips the slow experiment-reproduction sweeps (serial model
# training, no concurrency to check) which exceed the go test timeout
# under the race detector's slowdown; every concurrent package (obs,
# serve, transdas) runs in full — serve's model-install races (scoring
# during a fine-tune round, cached scoring across upload and fine-tune
# swaps) included.
race:
	$(GO) test -race -short ./...

# Every test under cmd/ under the race detector, the real-process e2e
# suites included: `race` runs -short, which skips every test that
# spawns ucad-serve / ucad-feed children (the children are built with
# -race too, so their slower start shifts every timing the tests wait on).
race-e2e:
	$(GO) test -race ./cmd/...

# A short coverage-guided pass over the WAL record decoder — the one
# parser that must never panic on arbitrary bytes (it reads crash
# debris on every recovery) — and over the recovery loop built on it
# (snapshot decode + segment scan, as a restart and as a standby run it);
# then the feed's untrusted-input parsers (audit-log JSONL and CSV lines)
# and the feeder's checkpoint load over a torn delta segment; then the
# ingest path's two parsers of untrusted input (the /v1/events body and
# the statement abstraction every event's SQL goes through); then the
# model-file loader every upload, checkpoint and shipped model goes
# through (its seed is a 2 KiB saved model, whose default 60 s
# minimization per new input would eat the whole pass, so it is capped);
# then the two layout records read back on every restore and mirrored
# onto standbys (the WAL layout manifest, a tenant's tenant.json); then
# the replication listing a standby acts on (every file it names must
# land inside its tenant's directory).
fuzz-smoke:
	$(GO) test -fuzz=FuzzRecordDecode -fuzztime=10s -run='^$$' ./internal/wal/
	$(GO) test -fuzz=FuzzRecoverStream -fuzztime=10s -run='^$$' ./internal/wal/
	$(GO) test -fuzz=FuzzParseJSONLine -fuzztime=5s -run='^$$' ./internal/feed/
	$(GO) test -fuzz=FuzzParseCSVLine -fuzztime=5s -run='^$$' ./internal/feed/
	$(GO) test -fuzz=FuzzLoadCheckpoint -fuzztime=5s -run='^$$' ./internal/feed/
	$(GO) test -fuzz=FuzzDecodeEvents -fuzztime=5s -run='^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzEncodeEvents -fuzztime=5s -run='^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzEncodeWALRecord -fuzztime=5s -run='^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzAbstract -fuzztime=5s -run='^$$' ./internal/sqlnorm/
	$(GO) test -fuzz=FuzzLoadModel -fuzztime=5s -fuzzminimizetime=100x -run='^$$' ./internal/core/
	$(GO) test -fuzz=FuzzLoadManifest -fuzztime=5s -run='^$$' ./internal/wal/
	$(GO) test -fuzz=FuzzReadSpec -fuzztime=5s -run='^$$' ./internal/tenant/
	$(GO) test -fuzz=FuzzReplicaListing -fuzztime=5s -run='^$$' ./internal/replica/

# The scoring kernel's contract: float32 similarity scores within 1e-4
# of the float64 instantiation with stable ranks/verdicts, both
# instantiations held to their pinned similarity bits (amd64), the
# first-block table bit-identical to the matmul it replaces, plus
# bitwise parity of the packed-SSE kernels (float32 matmul, attention,
# softmax; the float64 matmul primitives training and the reference
# scorer run on) against the portable ones, the float32 exponential's
# accuracy, training held to its pinned weight and loss bits (amd64),
# and the DeepLog and USAD baselines held to their pinned weight, rank
# and threshold bits after Fit (amd64).
# Run without -short so the Scenario-II shape (the paper model's h=64
# m=8 head width, which exercises the packed attention kernels) is
# covered.
equiv32:
	$(GO) test -count=1 -run 'TestFloat32|TestScoreBitsPinned|TestTrainBitsPinned|TestFirstBlockTable' ./internal/transdas/
	$(GO) test -count=1 -run 'TestMatMul32AsmMatchesGeneric|TestMatMul64AsmMatchesGeneric|TestAttnKernels8|TestSoftmax32' ./internal/tensor/
	$(GO) test -count=1 -run 'TestBaselineBitsPinned' ./internal/baselines/

# The !amd64 fallbacks of the assembly kernels run on no CI machine;
# type-check them for another architecture (a cross-vet downloads and
# links nothing) so a signature drift fails here, not on a user's arm64.
# Likewise the feed's non-Linux wait (the Poll timer alone, no inotify)
# and the ucad-feed binary built on it, for macOS and Windows.
portable:
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/transdas/
	GOOS=darwin $(GO) vet ./internal/feed/ ./cmd/ucad-feed/
	GOOS=windows $(GO) vet ./internal/feed/ ./cmd/ucad-feed/

# bench/ is a nested module that imports internal/... directly, so
# `go build ./...` and `go vet ./...` never compile it: type-check it
# (two seconds) so an internal rename that breaks the tracked benchmark
# fails the default gate, not only bench-check.
bench-build:
	cd bench && $(GO) vet ./...

# No capability without a production caller: type-checks the module and
# bench/ucadbench and fails on an exported identifier under internal/
# that no non-test code references, or an exported field it reads but
# never writes (surface_test.go holds both rules, the write detector's
# self-test and the short allow-list). `race` runs -short, which skips
# the gate.
surface:
	$(GO) test -count=1 -run 'TestExportedSurfaceIsExercised|TestFieldWritesSelfTest' .

# The CI gate: static checks (gofmt, the nested benchmark module and the
# exported-surface rule and the portable-fallback cross-vet included)
# plus the suite under the race detector (the serving layer is heavily
# concurrent), the float32 equivalence contract, and the fuzz smoke
# (WAL decoder and recovery, feed parsers and checkpoint load, ingest
# body and statement abstraction, model-file load, layout manifest,
# tenant spec and replication listing).
check: fmt vet build portable bench-build surface race equiv32 fuzz-smoke

# The paper-reproduction sweep (one benchmark per table/figure plus the
# training hot paths). Serving-side performance is bench-check's harness.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# A five-second before/after for a scoring-kernel change: ns and allocs
# per context at the paper shape, both precisions, batch 1 and 16 — the
# in-module twin of ucadbench's transdas.rank_*_us_per_op_* rows — then
# both matmuls alone at the models' projection shapes, in ns and Gflop/s
# (the twin of tensor.matmul{32,64}_gflops; the file calls only
# MatMulInto and MatMulInto32, so it also runs on a parent).
bench-kernel:
	$(GO) test -run='^$$' -bench=BenchmarkScoreBatch -benchmem ./internal/transdas/
	$(GO) test -run='^$$' -bench=BenchmarkMatMul -benchmem ./internal/tensor/

# A five-second before/after for a training change: windows per second
# and heap allocations per window at ucadbench's small and paper model
# shapes (two workers, batch 16) — the in-module twin of ucadbench's
# transdas.train_windows_per_s — plus one Fit of the DeepLog and USAD
# baselines at Table 2's quick settings, in ns and bytes per Fit. It
# calls only transdas.New, Train, NewDeepLog, NewUSAD and Fit, so the
# file also runs on a parent.
bench-train:
	$(GO) test -run='^$$' -bench='BenchmarkTrainingWindow|BenchmarkBaselineFit' -benchmem .

# A five-second before/after for a feeder commit change: one 64-event
# batch plus its checkpoint commit at 100 and 10 000 open sessions, in
# ns, allocated bytes and bytes written per commit. It calls only
# NewFeeder, sess.Event and commit, so the file also runs on a parent.
bench-feed:
	$(GO) test -run='^$$' -bench=BenchmarkFeederCommit -benchmem ./internal/feed/

# The benchmark's own gate: bench-build, the module's tests, then a
# smoke run of every workload (run.sh exits non-zero when a verdict set
# comes out incorrect).
bench-check: bench-build
	cd bench && $(GO) test ./...
	bash bench/run.sh -all -smoke

# The simplicity numbers CHANGES.md quotes, from a committed command:
# non-test Go lines under internal/ + cmd/, and the flag counts of the
# five binaries (the sets each flags_test.go pins to its docs).
size:
	@printf 'non-test Go lines (internal/ + cmd/): '
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@for b in ucad-serve ucad-feed ucad-experiments tracegen; do \
		printf '%s flags: ' $$b; grep -c '^	[a-zA-Z]* := flag\.' cmd/$$b/main.go; done
	@printf 'ucad train flags: '; awk '/^func runTrain/,/^}/' cmd/ucad/main.go | grep -c ':= fs\.'
	@printf 'ucad detect flags: '; awk '/^func runDetect/,/^}/' cmd/ucad/main.go | grep -c ':= fs\.'

# The four examples end to end: run each and diff its stdout against
# examples/<name>/testdata/stdout.golden (float output pinned on amd64).
# Not part of check: CI runs it as its own job beside check, since the
# four take about 5 minutes on two vCPUs, locationservice 4.7 of them;
# quickstart, commenting and loganomaly take seconds.
examples:
	@for e in quickstart commenting loganomaly locationservice; do \
		echo "examples/$$e"; \
		out=$$($(GO) run ./examples/$$e) || exit 1; \
		printf '%s\n' "$$out" | diff -u examples/$$e/testdata/stdout.golden - || exit 1; \
	done

clean:
	$(GO) clean ./...
