package main

import (
	"encoding/json"
	"math"
	"math/rand"

	"contention/internal/core"
	"contention/internal/serve"
)

// Corpora are generated here, from the seed alone; the program under
// test sees only the encoded inputs. Each corpus salts the seed so two
// corpora of one run do not share a random stream.
const (
	saltFastBin = 0x66617374
	saltJSON    = 0x6a736f6e
	saltLib     = 0x6c696273
	saltLadder  = 0x6c616464
	saltServing = 0x73657276
)

func corpusRNG(seed, salt int64) *rand.Rand { return rand.New(rand.NewSource(seed*1_000_003 + salt)) }

// corpusSize is the number of pre-encoded request bodies of an HTTP
// workload.
const corpusSize = 4096

// surfaceCells is surface.Config's default grid: comm fractions k/512
// are grid nodes, which the surface answers bit-for-bit.
const surfaceCells = 512

// wireRequest is one pre-encoded request and how its answer is checked.
type wireRequest struct {
	req  serve.Request
	body []byte
	// ref is serve.Direct's exact answer; tol is the relative error the
	// served answer may have (0: the same bits).
	ref float64
	tol float64
}

// randomKind fills in the 50/50 comm/comp half of a request.
func randomKind(rng *rand.Rand, req *serve.Request) {
	if rng.Intn(2) == 0 {
		req.Kind = "comm"
		req.Dir = "to_back"
		if rng.Intn(2) == 0 {
			req.Dir = "to_host"
		}
		req.Sets = []serve.DataSetSpec{{N: 1 + rng.Intn(100), Words: rng.Intn(4000)}}
		return
	}
	req.Kind = "comp"
	d := 0.1 + rng.Float64()*10
	req.Dcomp = &d
}

// fastBinCorpus is serve_fast_bin's: homogeneous contender mixes, which
// the precomputed surface covers, p in [0,16], half the comm fractions
// on grid nodes and half between them.
func fastBinCorpus(seed int64) []wireRequest {
	rng := corpusRNG(seed, saltFastBin)
	out := make([]wireRequest, corpusSize)
	for i := range out {
		w := &out[i]
		one := serve.ContenderSpec{MsgWords: rng.Intn(2000)}
		if i%2 == 0 {
			one.CommFraction = float64(rng.Intn(surfaceCells*4/5+1)) / surfaceCells
		} else {
			one.CommFraction = rng.Float64() * 0.8
			w.tol = 1e-3
		}
		w.req.Contenders = make([]serve.ContenderSpec, rng.Intn(17))
		for k := range w.req.Contenders {
			w.req.Contenders[k] = one
		}
		randomKind(rng, &w.req)
	}
	return out
}

// jsonCorpus is the loadgen-style corpus of serve_default_json and
// fleet_json: 12 reused contender mixes, half of them heterogeneous, so
// that after warm-up every request is a memo hit.
func jsonCorpus(seed int64) []wireRequest {
	rng := corpusRNG(seed, saltJSON)
	mixes := make([][]serve.ContenderSpec, 12)
	for m := range mixes {
		specs := make([]serve.ContenderSpec, rng.Intn(5))
		for i := range specs {
			if i == 0 || m >= len(mixes)/2 {
				specs[i] = serve.ContenderSpec{
					CommFraction: math.Round(rng.Float64()*80) / 100,
					MsgWords:     rng.Intn(2000),
				}
			} else {
				specs[i] = specs[0]
			}
		}
		mixes[m] = specs
	}
	out := make([]wireRequest, corpusSize)
	for i := range out {
		out[i].req.Contenders = mixes[rng.Intn(len(mixes))]
		randomKind(rng, &out[i].req)
	}
	return out
}

// encode fills in the bodies (binary or JSON wire) and the reference
// answers, computed by serve.Direct on a predictor of its own with no
// surface attached, so every reference is the exact DP result.
func encode(reqs []wireRequest, binary bool) error {
	ref, err := core.NewPredictor(serve.SyntheticCalibration())
	if err != nil {
		return err
	}
	for i := range reqs {
		w := &reqs[i]
		if binary {
			w.body, err = serve.AppendBinaryRequest(nil, &w.req)
		} else {
			w.body, err = json.Marshal(&w.req)
		}
		if err != nil {
			return err
		}
		resp, err := serve.Direct(ref, &w.req, false)
		if err != nil {
			return err
		}
		w.ref = resp.Value
	}
	return nil
}

// sameAnswer reports whether got is ref within tol (0: the same bits).
func sameAnswer(got, ref, tol float64) bool {
	if tol == 0 {
		return math.Float64bits(got) == math.Float64bits(ref)
	}
	return math.Abs(got-ref) <= tol*math.Abs(ref)
}

// libKey is one prediction of lib_cold_sweep: a heterogeneous contender
// multiset no predictor of the run has seen before its epoch.
type libKey struct {
	comm  bool
	dir   core.Direction
	sets  []core.DataSet
	dcomp float64
	cs    []core.Contender
	ref   float64
}

// sweepKeys is the number of candidate placements a scheduler prices in
// one operation of lib_cold_sweep; epochOps is the number of operations
// one predictor serves before it is replaced (≈100k keys).
const (
	sweepKeys = 64
	epochOps  = 1600
)

// randomContenders draws p heterogeneous contenders.
func randomContenders(rng *rand.Rand, p int) []core.Contender {
	cs := make([]core.Contender, p)
	for i := range cs {
		cs[i] = core.Contender{CommFraction: rng.Float64() * 0.8, MsgWords: rng.Intn(2000)}
	}
	return cs
}

// libCorpus draws one epoch of keys: p uniform in 1..16, 50/50
// PredictComm with 1–3 data sets and PredictComp.
func libCorpus(seed int64, n int) []libKey {
	rng := corpusRNG(seed, saltLib)
	out := make([]libKey, n)
	for i := range out {
		k := &out[i]
		k.cs = randomContenders(rng, 1+rng.Intn(16))
		if k.comm = rng.Intn(2) == 0; k.comm {
			k.dir = core.Direction(rng.Intn(2))
			k.sets = make([]core.DataSet, 1+rng.Intn(3))
			for s := range k.sets {
				k.sets[s] = core.DataSet{N: 1 + rng.Intn(100), Words: rng.Intn(4000)}
			}
		} else {
			k.dcomp = 0.1 + rng.Float64()*10
		}
	}
	return out
}

// predict evaluates the key on p.
func (k *libKey) predict(p *core.Predictor) (float64, error) {
	if k.comm {
		return p.PredictComm(k.dir, k.sets, k.cs)
	}
	return p.PredictComp(k.dcomp, k.cs)
}
