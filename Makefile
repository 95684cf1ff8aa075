GO ?= go

.PHONY: all tier1 lint bench

all: tier1

# Tier-1 guard: everything must vet, build, and pass tests. bench/ is its
# own module and calls simulator, service and journal APIs directly (the
# frozen-bench/ finding in ROADMAP.md says which ones it keeps alive), so
# vetting it here makes a change to one of them fail tier-1 locally, not
# only in CI's bench job.
tier1:
	$(GO) vet ./...
	$(GO) -C bench vet ./...
	$(GO) build ./...
	$(GO) test ./...

# Static analysis: gofmt and go vet always; staticcheck when installed
# (CI installs it, local runs skip with a hint instead of failing).
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt -w:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# The repository benchmark (BENCHMARK.json): all five workloads; see
# bench/README.md for single workloads, -check-repeat and -spread.
bench:
	$(GO) run -C bench . -all
