// The benchmark is a module of its own so that it builds from its own
// directory (go run -C bench .) and never rides along in the repository's
// tier-1 `go build ./... && go test ./...`. The module path keeps the
// repro/ prefix because the per-layer ladder calls repro/internal/...
// packages, and Go's internal rule is checked against import paths.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
