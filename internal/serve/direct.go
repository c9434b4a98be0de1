package serve

import "contention/internal/core"

// request converts a validated query back to its wire Request form,
// cloning every slice so the result does not alias pooled buffers.
func (q *query) request() *Request {
	req := &Request{Kind: q.kind}
	if len(q.cs) > 0 {
		req.Contenders = make([]ContenderSpec, len(q.cs))
		for i, c := range q.cs {
			req.Contenders[i] = ContenderSpec{
				CommFraction: c.CommFraction, MsgWords: c.MsgWords, IOFraction: c.IOFraction,
			}
		}
	}
	if q.kind == "comm" {
		req.Dir = "to_back"
		if q.dir == core.BackToHost {
			req.Dir = "to_host"
		}
		req.Sets = make([]DataSetSpec, len(q.sets))
		for i, s := range q.sets {
			req.Sets[i] = DataSetSpec{N: s.N, Words: s.Words}
		}
		return req
	}
	d := q.dcomp
	req.Dcomp = &d
	if q.hasJ {
		j := q.j
		req.J = &j
	}
	return req
}

// trySurface probes the predictor's precomputed surface for q.
func trySurface(pred *core.Predictor, q *query) (float64, bool) {
	switch {
	case q.kind == "comm":
		return pred.TryPredictComm(q.dir, q.sets, q.cs)
	case q.hasJ:
		return pred.TryPredictCompWithJ(q.dcomp, q.cs, q.j)
	default:
		return pred.TryPredictComp(q.dcomp, q.cs)
	}
}

// exact answers q with a plain Predictor call: the exact DP.
func exact(pred *core.Predictor, q *query) (float64, error) {
	switch {
	case q.kind == "comm":
		return pred.PredictComm(q.dir, q.sets, q.cs)
	case q.hasJ:
		return pred.PredictCompWithJ(q.dcomp, q.cs, q.j)
	default:
		return pred.PredictComp(q.dcomp, q.cs)
	}
}

// Direct validates req and answers it with a plain (unbatched)
// Predictor call — the reference evaluation the served-vs-direct
// differential compares the served pipeline against, reused by the DES
// replay driver and the sweep matrix's direct cells. With tryFast set it
// mirrors a FastPath server that always wins its admission slot:
// surface-resident keys are answered from the surface, everything else
// by the exact DP, and every answer carries Fast=true. Without it every
// answer is the exact DP result. It validates into a pooled workspace,
// as the server does, and allocates nothing on a warm call.
func Direct(pred *core.Predictor, req *Request, tryFast bool) (Response, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	if err := ws.load(req); err != nil {
		return Response{}, err
	}
	q := &ws.q
	if tryFast {
		if v, ok := trySurface(pred, q); ok {
			return Response{Value: v, Fast: true}, nil
		}
	}
	v, err := exact(pred, q)
	if err != nil {
		return Response{}, err
	}
	return Response{Value: v, Fast: tryFast}, nil
}
