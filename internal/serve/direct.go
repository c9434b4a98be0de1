package serve

import "contention/internal/core"

// DecodeBinaryRequest parses one length-prefixed binary request payload
// (the AppendBinaryRequest encoding) back into its wire Request form —
// the read-side counterpart replay drivers use to interpret trace
// bytes. All faults are *RequestError, exactly like the server's own
// decoder; any in-band trace block is validated and dropped.
func DecodeBinaryRequest(b []byte) (*Request, error) {
	br := binReqPool.Get().(*binReq)
	defer binReqPool.Put(br)
	if len(b) < 4 {
		return nil, badRequest("binary request: missing length prefix")
	}
	n := int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
	if n > MaxBodyBytes {
		return nil, badRequest("binary payload %d exceeds %d bytes", n, MaxBodyBytes)
	}
	if len(b)-4 != n {
		return nil, badRequest("binary payload is %d bytes, declared %d", len(b)-4, n)
	}
	if cap(br.buf) < n {
		br.buf = make([]byte, n)
	} else {
		br.buf = br.buf[:n]
	}
	copy(br.buf, b[4:])
	if err := br.decode(); err != nil {
		return nil, err
	}
	return br.q.request(), nil
}

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
// Predictor call — the reference evaluation the PR 5 differential
// compares the served pipeline against, reused by the DES replay driver
// and the sweep matrix's direct cells. With tryFast set it mirrors a
// FastPath server that always wins its admission slot: surface-resident
// keys are answered from the surface, everything else by the exact DP,
// and every answer carries Fast=true. Without it every answer is the
// exact DP result.
func Direct(pred *core.Predictor, req *Request, tryFast bool) (Response, error) {
	q, err := req.validate()
	if err != nil {
		return Response{}, err
	}
	if tryFast {
		if v, ok := trySurface(pred, &q); ok {
			return Response{Value: v, Fast: true}, nil
		}
	}
	v, err := exact(pred, &q)
	if err != nil {
		return Response{}, err
	}
	return Response{Value: v, Fast: tryFast}, nil
}
