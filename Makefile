# Developer entry points; CI runs the same commands (see
# .github/workflows/ci.yml).

.PHONY: build test lint fmt bench stress

build:
	go build ./...

test:
	go test ./...

# go vet plus the determinism check (determinism_test.go, also part of
# `make test`), as CI runs them. See ARCHITECTURE.md "Determinism check".
lint:
	go vet ./...
	go test -run TestDeterminism -v .

fmt:
	gofmt -w $$(git ls-files '*.go')

bench:
	go run ./cmd/ccsvm-bench

stress:
	go run ./cmd/ccsvm-stress -seed 1 -ops 100000 -preset ccsvm-base
