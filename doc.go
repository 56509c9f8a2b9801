// Package ucad is the root of the UCAD reproduction: an unsupervised
// contextual anomaly detection system for database access logs
// (Li et al., SIGMOD 2022), implemented in pure Go.
//
// The public surface lives under internal/ packages wired together by
// the cmd/ binaries and examples/; see README.md for the architecture
// and DESIGN.md for the per-experiment reproduction index. The
// benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation at a CI-friendly scale; the serving system is
// measured by bench/ucadbench (see bench/README.md).
package ucad
