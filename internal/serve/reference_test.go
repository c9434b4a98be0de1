package serve

import (
	"encoding/json"
	"io"
	"math"
	"strings"

	"contention/internal/core"
)

// The JSON wire as encoding/json decoded it, kept as the reference the
// hand codec is held to (FuzzDecodeRequest, TestDecodeRequestMatchesReference).
// referenceDecode reads one body through the same MaxBodyBytes+1 limit,
// with unknown fields refused and nothing but whitespace after the value;
// referenceValidate is the validator that went with it, plus the u32
// caps both wires now enforce.

func referenceDecode(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxBodyBytes+1))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("malformed request: %v", err)
	}
	// A second value on the stream (or trailing garbage) is malformed.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, badRequest("trailing data after request body")
	}
	return &req, nil
}

// referenceQuery is referenceDecode followed by referenceValidate.
func referenceQuery(body string) (query, error) {
	req, err := referenceDecode(strings.NewReader(body))
	if err != nil {
		return query{}, err
	}
	return req.referenceValidate()
}

func (req *Request) referenceValidate() (query, error) {
	var q query
	switch req.Kind {
	case "comm", "comp":
		q.kind = req.Kind
	case "":
		return q, badRequest("missing kind (want \"comm\" or \"comp\")")
	default:
		return q, badRequest("unknown kind %q (want \"comm\" or \"comp\")", req.Kind)
	}

	cs, err := req.referenceContenders()
	if err != nil {
		return q, err
	}
	q.cs = cs

	switch q.kind {
	case "comm":
		if req.Dcomp != nil || req.J != nil {
			return q, badRequest("comm query does not take dcomp or j")
		}
		switch strings.ToLower(req.Dir) {
		case "to_back", "to-back", "host_to_back":
			q.dir = core.HostToBack
		case "to_host", "to-host", "back_to_host":
			q.dir = core.BackToHost
		case "":
			return q, badRequest("comm query missing dir (want \"to_back\" or \"to_host\")")
		default:
			return q, badRequest("unknown dir %q (want \"to_back\" or \"to_host\")", req.Dir)
		}
		if len(req.Sets) == 0 {
			return q, badRequest("comm query needs at least one data set")
		}
		if len(req.Sets) > MaxDataSets {
			return q, badRequest("too many data sets (%d > %d)", len(req.Sets), MaxDataSets)
		}
		q.sets = make([]core.DataSet, len(req.Sets))
		for i, s := range req.Sets {
			d := core.DataSet{N: s.N, Words: s.Words}
			if err := d.Validate(); err != nil {
				return q, badRequest("sets[%d]: %v", i, err)
			}
			if uint64(d.N) > math.MaxUint32 || uint64(d.Words) > math.MaxUint32 {
				return q, badRequest("sets[%d]: count over 2^32-1", i)
			}
			q.sets[i] = d
		}
	case "comp":
		if req.Dir != "" || len(req.Sets) > 0 {
			return q, badRequest("comp query does not take dir or sets")
		}
		if req.Dcomp == nil {
			return q, badRequest("comp query missing dcomp")
		}
		d := *req.Dcomp
		if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			return q, badRequest("dcomp %v must be finite and non-negative", d)
		}
		q.dcomp = d
		if req.J != nil {
			if *req.J < 0 {
				return q, badRequest("j %d must be non-negative", *req.J)
			}
			if uint64(*req.J) > math.MaxUint32 {
				return q, badRequest("j over 2^32-1")
			}
			q.j, q.hasJ = *req.J, true
		}
	}
	return q, nil
}

func (req *Request) referenceContenders() ([]core.Contender, error) {
	specs := req.Contenders
	if req.P != nil {
		p := *req.P
		if p < 0 {
			return nil, badRequest("p %d must be non-negative", p)
		}
		if p > MaxContenders {
			return nil, badRequest("p %d exceeds the %d-contender limit", p, MaxContenders)
		}
		if len(specs) != 1 {
			return nil, badRequest("p requires exactly one contender spec to replicate (got %d)", len(specs))
		}
		rep := make([]ContenderSpec, p)
		for i := range rep {
			rep[i] = specs[0]
		}
		specs = rep
	}
	if len(specs) > MaxContenders {
		return nil, badRequest("too many contenders (%d > %d)", len(specs), MaxContenders)
	}
	cs := make([]core.Contender, len(specs))
	for i, c := range specs {
		ct := core.Contender{CommFraction: c.CommFraction, MsgWords: c.MsgWords, IOFraction: c.IOFraction}
		if err := ct.Validate(); err != nil {
			return nil, badRequest("contenders[%d]: %v", i, err)
		}
		if uint64(ct.MsgWords) > math.MaxUint32 {
			return nil, badRequest("contenders[%d]: msg_words over 2^32-1", i)
		}
		cs[i] = ct
	}
	return cs, nil
}

// sameQuery reports whether two queries are the same bits: kind,
// direction, j, dcomp, and every set and contender in order.
func sameQuery(a, b query) bool {
	if a.kind != b.kind || a.dir != b.dir || a.hasJ != b.hasJ || a.j != b.j ||
		math.Float64bits(a.dcomp) != math.Float64bits(b.dcomp) ||
		len(a.sets) != len(b.sets) || len(a.cs) != len(b.cs) {
		return false
	}
	for i := range a.sets {
		if a.sets[i] != b.sets[i] {
			return false
		}
	}
	for i, c := range a.cs {
		d := b.cs[i]
		if math.Float64bits(c.CommFraction) != math.Float64bits(d.CommFraction) ||
			math.Float64bits(c.IOFraction) != math.Float64bits(d.IOFraction) || c.MsgWords != d.MsgWords {
			return false
		}
	}
	return true
}
