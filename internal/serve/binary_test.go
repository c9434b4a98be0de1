package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"contention/internal/core"
	"contention/internal/obs"
	"contention/internal/surface"
)

// encodeReq is a test helper: AppendBinaryRequest or die.
func encodeReq(t *testing.T, req *Request) []byte {
	t.Helper()
	b, err := AppendBinaryRequest(nil, req)
	if err != nil {
		t.Fatalf("AppendBinaryRequest: %v", err)
	}
	return b
}

// TestBinaryRoundTrip proves the binary path is a pure transport: for a
// randomized corpus, a binary-encoded request answered by the server
// yields bit-for-bit the same value as the JSON path and the direct
// predictor call.
func TestBinaryRoundTrip(t *testing.T) {
	pred, err := core.NewPredictor(SyntheticCalibration())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Pred: pred, Window: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		req := randomWireRequest(rng)
		body := encodeReq(t, req)
		hr, err := http.Post(ts.URL+"/v1/predict", ContentTypeBinary, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(hr.Body)
		hr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("binary request %d: status %d: %s", i, hr.StatusCode, raw)
		}
		if ct := hr.Header.Get("Content-Type"); ct != ContentTypeBinary {
			t.Fatalf("response content type %q, want %q", ct, ContentTypeBinary)
		}
		resp, err := DecodeBinaryResponse(raw)
		if err != nil {
			t.Fatalf("DecodeBinaryResponse: %v (payload %x)", err, raw)
		}

		q, err := req.referenceValidate()
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		switch {
		case q.kind == "comm":
			want, err = pred.PredictComm(q.dir, q.sets, q.cs)
		case q.hasJ:
			want, err = pred.PredictCompWithJ(q.dcomp, q.cs, q.j)
		default:
			want, err = pred.PredictComp(q.dcomp, q.cs)
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.Value != want {
			t.Fatalf("binary answer %v != direct %v for %+v", resp.Value, want, req)
		}
	}
}

// randomRequest builds a valid randomized wire request (shared with the
// round-trip and fast-path differentials).
func randomWireRequest(rng *rand.Rand) *Request {
	cs := make([]ContenderSpec, 1+rng.Intn(5))
	f := math.Round(rng.Float64()*80) / 100
	for i := range cs {
		spec := ContenderSpec{CommFraction: f, MsgWords: rng.Intn(1500)}
		if rng.Intn(2) == 0 { // heterogeneous half
			spec.CommFraction = math.Round(rng.Float64()*80) / 100
			if rng.Intn(3) == 0 {
				spec.IOFraction = math.Round(rng.Float64()*(1-spec.CommFraction)*50) / 100
			}
		}
		cs[i] = spec
	}
	if rng.Intn(2) == 0 {
		sets := make([]DataSetSpec, 1+rng.Intn(3))
		for i := range sets {
			sets[i] = DataSetSpec{N: 1 + rng.Intn(50), Words: rng.Intn(4000)}
		}
		dir := "to_back"
		if rng.Intn(2) == 0 {
			dir = "to_host"
		}
		return &Request{Kind: "comm", Dir: dir, Sets: sets, Contenders: cs}
	}
	d := rng.Float64() * 10
	req := &Request{Kind: "comp", Dcomp: &d, Contenders: cs}
	if rng.Intn(2) == 0 {
		j := rng.Intn(1200)
		req.J = &j
	}
	return req
}

// TestFastPathDifferential exercises the batcher bypass with a surface
// attached: homogeneous dyadic-fraction requests must come back Fast
// and bit-exact against the direct predictor; every answer (fast or
// batched) must stay within the interpolation bound.
func TestFastPathDifferential(t *testing.T) {
	cal := SyntheticCalibration()
	pred, err := core.NewPredictor(cal)
	if err != nil {
		t.Fatal(err)
	}
	surf, err := surface.Build(cal.Tables, surface.Config{MaxContenders: 16, GridCells: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := pred.AttachSurface(surf); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Pred: pred, Window: -1, FastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(11))
	fastSeen := 0
	for i := 0; i < 500; i++ {
		req := randomWireRequest(rng)
		body := encodeReq(t, req)
		hr, err := http.Post(ts.URL+"/v1/predict", ContentTypeBinary, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(hr.Body)
		hr.Body.Close()
		if err != nil || hr.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d err %v", i, hr.StatusCode, err)
		}
		resp, err := DecodeBinaryResponse(raw)
		if err != nil {
			t.Fatal(err)
		}
		q, err := req.referenceValidate()
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		switch {
		case q.kind == "comm":
			want, err = pred.PredictComm(q.dir, q.sets, q.cs)
		case q.hasJ:
			want, err = pred.PredictCompWithJ(q.dcomp, q.cs, q.j)
		default:
			want, err = pred.PredictComp(q.dcomp, q.cs)
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.Fast {
			fastSeen++
			// k/100 fractions are not dyadic in general, so a fast answer
			// may be interpolated; exactness at grid nodes is checked by the
			// surface differential, here the pinned bound is the contract.
			if rel := math.Abs(resp.Value-want) / want; rel > 1e-3 {
				t.Fatalf("fast answer %v vs direct %v: rel error %.3g > 1e-3", resp.Value, want, rel)
			}
		} else if resp.Value != want {
			t.Fatalf("batched answer %v != direct %v", resp.Value, want)
		}
	}
	if fastSeen == 0 {
		t.Fatal("no request took the fast path — bypass never engaged")
	}
}

// TestBinaryDecodeAllocationFree pins the pooled binary decode + encode
// cycle at zero steady-state allocations.
func TestBinaryDecodeAllocationFree(t *testing.T) {
	d := 2.5
	j := 500
	req := &Request{Kind: "comp", Dcomp: &d, J: &j,
		Contenders: []ContenderSpec{{CommFraction: 0.25, MsgWords: 500}, {CommFraction: 0.25, MsgWords: 500}}}
	payload, err := AppendBinaryRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	ws := new(workspace)
	rd := bytes.NewReader(payload)
	resp := Response{Value: 3.25, Batch: 1, Fast: true}
	if allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(payload)
		if err := (binaryWire{}).decode(rd, ws); err != nil {
			t.Fatal(err)
		}
		ws.out = AppendBinaryResponse(ws.out[:0], resp)
	}); allocs != 0 {
		t.Fatalf("binary decode/encode allocates %.1f allocs/op, want 0", allocs)
	}
}

// FuzzDecodeBinaryRequest fuzzes the binary wire decoder: malformed
// length prefixes, truncation, flipped flags, NaN/Inf payloads, and
// arbitrary garbage must fail with a typed 4xx *RequestError — never a
// panic, never a 5xx classification, and a successful decode must yield
// a query the model-side validators accept.
func FuzzDecodeBinaryRequest(f *testing.F) {
	valid := func(req *Request) []byte {
		b, err := AppendBinaryRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	d, j, p := 2.5, 500, 3
	comp := valid(&Request{Kind: "comp", Dcomp: &d, J: &j, P: &p,
		Contenders: []ContenderSpec{{CommFraction: 0.25, MsgWords: 500}}})
	comm := valid(&Request{Kind: "comm", Dir: "to_host",
		Sets:       []DataSetSpec{{N: 10, Words: 100}, {N: 1, Words: 4000}},
		Contenders: []ContenderSpec{{CommFraction: 0.5, MsgWords: 80, IOFraction: 0.25}}})
	seeds := [][]byte{
		comp,
		comm,
		comp[:4],                 // header only
		comp[:len(comp)-1],       // truncated payload
		append(comp, 0xff),       // trailing byte
		{},                       // empty
		{0xff, 0xff, 0xff, 0xff}, // absurd length prefix
		{4, 0, 0, 0, binVersion, binKindComp, 0, 0},    // comp with no dcomp
		{4, 0, 0, 0, 9, binKindComp, 0, 0},             // bad version
		{4, 0, 0, 0, binVersion, 7, 0, 0},              // unknown kind
		{4, 0, 0, 0, binVersion, binKindComm, 0xfe, 0}, // junk flags
	}
	// NaN dcomp and NaN comm fraction payloads.
	nanComp := append([]byte(nil), comp...)
	binary.LittleEndian.PutUint64(nanComp[8:], math.Float64bits(math.NaN()))
	seeds = append(seeds, nanComp)
	infFrac := append([]byte(nil), comp...)
	binary.LittleEndian.PutUint64(infFrac[len(infFrac)-binContenderBytes:], math.Float64bits(math.Inf(1)))
	seeds = append(seeds, infFrac)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ws := new(workspace)
		if err := (binaryWire{}).decode(bytes.NewReader(data), ws); err != nil {
			requireRequestError(t, err, string(data))
			return
		}
		// A decode the binary path accepts must also be a query the
		// model-side validators accept: re-encode and revalidate.
		q := ws.q
		for _, c := range q.cs {
			if err := c.Validate(); err != nil {
				t.Fatalf("decoded contender fails validation: %v", err)
			}
		}
		if q.kind == "comp" && (math.IsNaN(q.dcomp) || math.IsInf(q.dcomp, 0) || q.dcomp < 0) {
			t.Fatalf("decoded dcomp %v escaped validation", q.dcomp)
		}
		reenc := appendBinaryQuery(nil, &q, ws.tc)
		if !bytes.Equal(reenc, data) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", reenc, data)
		}
	})
}

// TestBinaryErrorStatuses spot-checks the HTTP mapping for binary-path
// failures: malformed payloads are 400 with the JSON error envelope.
func TestBinaryErrorStatuses(t *testing.T) {
	pred, err := core.NewPredictor(SyntheticCalibration())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Pred: pred, Window: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range [][]byte{
		{},
		{0xff, 0xff, 0xff, 0xff},
		{4, 0, 0, 0, binVersion, 7, 0, 0},
	} {
		hr, err := http.Post(ts.URL+"/v1/predict", ContentTypeBinary, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if hr.StatusCode != http.StatusBadRequest {
			t.Fatalf("payload %x: status %d, want 400 (%s)", body, hr.StatusCode, raw)
		}
		if !strings.Contains(hr.Header.Get("Content-Type"), "application/json") {
			t.Fatalf("error response content type %q, want JSON envelope", hr.Header.Get("Content-Type"))
		}
	}
}

// postStatus sends body on the named wire and returns the status and
// the error envelope's message ("" on success).
func postStatus(t *testing.T, ts *httptest.Server, contentType string, body []byte) (int, string) {
	t.Helper()
	hr, err := http.Post(ts.URL+"/v1/predict", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	raw, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode == http.StatusOK {
		return hr.StatusCode, ""
	}
	var env ErrorBody
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("status %d, body %q is not the error envelope: %v", hr.StatusCode, raw, err)
	}
	return hr.StatusCode, env.Error
}

// TestWireCountsCappedAtU32: msg_words, a data set's n and words, and j
// above 2^32−1 are a 400 naming the field at every entry point. The
// binary wire carries them as u32, so before the cap AppendBinaryRequest
// encoded msg_words 4294967303 as 7 and the server priced a different
// request than the JSON wire would have.
func TestWireCountsCappedAtU32(t *testing.T) {
	_, ts := newTestServer(t, Config{Window: -1})
	pred := newTestPredictor(t)
	const over = 1<<32 + 7
	d, j := 2.5, over
	cs := []ContenderSpec{{CommFraction: 0.25, MsgWords: 500}}
	for _, tc := range []struct {
		field string
		req   *Request
	}{
		{"msg_words", &Request{Kind: "comp", Dcomp: &d, Contenders: []ContenderSpec{{CommFraction: 0.25, MsgWords: over}}}},
		{"j", &Request{Kind: "comp", Dcomp: &d, J: &j, Contenders: cs}},
		{"n", &Request{Kind: "comm", Dir: "to_back", Sets: []DataSetSpec{{N: over, Words: 8}}, Contenders: cs}},
		{"words", &Request{Kind: "comm", Dir: "to_back", Sets: []DataSetSpec{{N: 1, Words: over}}, Contenders: cs}},
	} {
		check := func(entry string, err error) {
			t.Helper()
			var re *RequestError
			if !errors.As(err, &re) || re.Status != http.StatusBadRequest || !strings.Contains(re.Msg, tc.field) {
				t.Errorf("%s %s = %v, want a 400 naming %s", entry, tc.field, err, tc.field)
			}
		}
		_, err := AppendBinaryRequest(nil, tc.req)
		check("AppendBinaryRequest", err)
		_, err = Direct(pred, tc.req, false)
		check("Direct", err)
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		_, err = RecordOf(body, false, nil)
		check("RecordOf", err)
		_, err = DecodeRequest(bytes.NewReader(body))
		check("DecodeRequest", err)
		if status, msg := postStatus(t, ts, "application/json", body); status != http.StatusBadRequest || !strings.Contains(msg, tc.field) {
			t.Errorf("JSON wire %s: status %d %q, want a 400 naming %s", tc.field, status, msg, tc.field)
		}
	}
	// The largest u32 is still a request, and the same one on both wires.
	j = 1<<32 - 1
	req := &Request{Kind: "comp", Dcomp: &d, J: &j, Contenders: cs}
	if _, err := AppendBinaryRequest(nil, req); err != nil {
		t.Fatalf("j = 2^32-1: %v", err)
	}
}

// TestKernelRefusalIs400: a contender whose fractions sum to 1 only after
// rounding ({comm 1, io 1e-20}: computing probability -1e-20) is refused
// by the validator with the kernel's own message — a 400 on both wires,
// where the kernel used to refuse it as a 422 model error.
func TestKernelRefusalIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{Window: -1})
	const want = "core: activity probability -1e-20 out of [0,1]"
	jsonBody := `{"kind":"comp","dcomp":1,"contenders":[{"comm_fraction":1,"io_fraction":1e-20}]}`
	// AppendBinaryRequest refuses the contender itself, so the binary body
	// is encoded from the query directly.
	binBody := appendBinaryQuery(nil, &query{kind: "comp", dcomp: 1,
		cs: []core.Contender{{CommFraction: 1, IOFraction: 1e-20}}}, obs.TraceContext{})
	for _, tc := range []struct {
		contentType string
		body        []byte
	}{
		{"application/json", []byte(jsonBody)},
		{ContentTypeBinary, binBody},
	} {
		status, msg := postStatus(t, ts, tc.contentType, tc.body)
		if status != http.StatusBadRequest || !strings.Contains(msg, want) {
			t.Errorf("%s: status %d %q, want 400 with %q", tc.contentType, status, msg, want)
		}
	}
}
