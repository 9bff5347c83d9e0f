GO ?= go

.PHONY: build test check bench benchmark race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./internal/simnet/ ./internal/torclient/ ./internal/bento/

# check is the full pre-merge gate: vet + build + tests + race detector.
check:
	sh scripts/check.sh

bench:
	$(GO) run ./cmd/benchharness -exp all

# benchmark is the repository's one performance benchmark (benchmark/README.md),
# scaled to 5 s windows; the driver's form is `sh benchmark/run.sh`.
benchmark:
	$(GO) run ./benchmark -duration 5
