// The benchmark is a module of its own so that it builds with its own
// build file and stays out of the repository's tier-1 `go test ./...`;
// the replace directive lets it import the program's internal packages
// (its import path sits under github.com/ucad/ucad).
module github.com/ucad/ucad/bench

go 1.22

require github.com/ucad/ucad v0.0.0

replace github.com/ucad/ucad => ../
