// The benchmark is a module of its own so that the repository's build
// (go build ./... at the root) neither compiles nor depends on it; the
// import-path prefix contention/ is what lets it reach internal/.
module contention/bench

go 1.22

require contention v0.0.0

replace contention => ../
