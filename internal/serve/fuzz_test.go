package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"contention/internal/core"
)

// FuzzDecodeRequest is the JSON codec's differential: on every body the
// hand decoder and the encoding/json reference (referenceDecode +
// referenceValidate) must give the same verdict and the same status,
// and on accept the same query bits. The decoder runs twice, into a
// fresh workspace and into one whose arrays hold another request's
// values, so nothing a pooled workspace carries can leak into a query.
// Failures must be the typed 4xx *RequestError — never a panic, never a
// 5xx. The checked-in corpus (testdata/fuzz/FuzzDecodeRequest) covers
// what encoding/json does that a hand decoder easily gets wrong: case
// folding (Kelvin sign, long s), duplicate keys and null in every field,
// escapes and surrogates, integers written as 1.0 or 1e2, 1e999, -0,
// 2^63, non-object bodies, and trailing whitespace against a trailing
// value; TestDecodeRequestMatchesReference adds the bodies around
// MaxBodyBytes, too large to be seeds.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		`{"kind":"comm","dir":"to_back","sets":[{"n":10,"words":100}],"contenders":[{"comm_fraction":0.2,"msg_words":50}]}`,
		`{"kind":"comp","dcomp":1.5,"contenders":[{"comm_fraction":0.2,"msg_words":50}]}`,
		`{"kind":"comp","dcomp":1.5,"j":500,"p":3,"contenders":[{"comm_fraction":0.2,"msg_words":50}]}`,
		`{"kind":"comp","dcomp":NaN}`,
		`{"kind":"comp","dcomp":1e309}`,
		`{"kind":"comp","dcomp":-4}`,
		`{"kind":"comp","dcomp":1,"p":-3,"contenders":[{"comm_fraction":0.2}]}`,
		`{"kind":"comp","dcomp":1,"contenders":[{"comm_fraction":-0.5,"msg_words":-7}]}`,
		`{"kind":"comm","dir":"sideways","sets":[{"n":1,"words":1}]}`,
		`{"kind":"comm","dir":"to_back","sets":[]}`,
		`{"kind":"","contenders":null}`,
		`{"unknown_field":true}`,
		`{"kind":"comp","dcomp":1}{"trailing":"document"}`,
		`[1,2,3]`, `"just a string"`, `null`, `42`, ``, `{`, "\x00\xff\xfe",
		strings.Repeat(`{"kind":"comp",`, 10_000),
		`{"kind":"comp","dcomp":1,"contenders":[` + strings.Repeat(`{"comm_fraction":0.1},`, 64) + `{"comm_fraction":0.1}]}`,
		`{"kind":"comp","dcomp":1,"j":2147483648}`,
		`{"kind":"comm","dir":"to_host","sets":[{"n":-1,"words":100}],"contenders":[]}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		checkDecodeAgainstReference(t, body)
	})
}

// dirty is a workspace decoded into before every check: its arrays hold
// values no request in the corpus sends.
var dirty = new(workspace)

// checkDecodeAgainstReference runs one body through the JSON wire and
// the reference and fails t unless they agree (see FuzzDecodeRequest).
func checkDecodeAgainstReference(t *testing.T, body string) {
	t.Helper()
	want, wantErr := referenceQuery(body)
	for i := range dirty.cs {
		dirty.cs[i] = core.Contender{CommFraction: 0.375, MsgWords: 77, IOFraction: 0.125}
	}
	for i := range dirty.sets {
		dirty.sets[i] = core.DataSet{N: 5, Words: 99}
	}
	for _, ws := range []*workspace{new(workspace), dirty} {
		err := (jsonWire{}).decode(strings.NewReader(body), ws)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("verdict differs: codec %v, encoding/json %v\nbody: %q", err, wantErr, body)
		}
		if err != nil {
			requireRequestError(t, err, body)
			requireRequestError(t, wantErr, body)
			if statusFor(err) != statusFor(wantErr) {
				t.Fatalf("status %d, encoding/json %d\nbody: %q", statusFor(err), statusFor(wantErr), body)
			}
			continue
		}
		if !sameQuery(ws.q, want) {
			t.Fatalf("query differs:\n codec         %+v\n encoding/json %+v\nbody: %q", ws.q, want, body)
		}
	}
}

// TestDecodeRequestMatchesReference holds the codec to encoding/json on
// bodies around the MaxBodyBytes cut-off: a value that ends inside the
// bytes read is accepted whatever follows as long as it is whitespace,
// one cut off by the limit is refused.
func TestDecodeRequestMatchesReference(t *testing.T) {
	const value = `{"kind":"comp","dcomp":2,"contenders":[{"comm_fraction":0.25,"msg_words":8}]}`
	spaced := func(n int) string { // value with inner whitespace, n bytes long
		head, tail := `{"kind":"comp","dcomp":2,`, `"contenders":[{"comm_fraction":0.25}]}`
		return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
	}
	bodies := []string{
		value + strings.Repeat(" ", MaxBodyBytes),              // trailing whitespace past the limit: accepted
		value + strings.Repeat(" ", MaxBodyBytes) + "{}",       // a second value past the limit: unread, accepted
		value + strings.Repeat("\n", 10) + "{}",                // a second value inside it: refused
		strings.Repeat(" ", MaxBodyBytes-len(value)+1) + value, // ends on the last byte read
		strings.Repeat(" ", MaxBodyBytes-len(value)+2) + value, // cut off one byte short
		spaced(MaxBodyBytes + 1),
		spaced(MaxBodyBytes + 2),
	}
	for _, b := range bodies {
		checkDecodeAgainstReference(t, b)
	}
	// The two around the cut-off really do straddle it.
	if _, err := DecodeRequest(strings.NewReader(bodies[3])); err != nil {
		t.Fatalf("value ending at byte MaxBodyBytes+1: %v", err)
	}
	if _, err := DecodeRequest(strings.NewReader(bodies[4])); err == nil {
		t.Fatal("value ending past byte MaxBodyBytes+1 accepted")
	}
	// And the codec agrees with the reference on a seeded corpus of valid
	// requests in every shape the differentials send.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		body, err := json.Marshal(randomWireRequest(rng))
		if err != nil {
			t.Fatal(err)
		}
		checkDecodeAgainstReference(t, string(body))
	}
}

// requireRequestError asserts err is the typed 4xx rejection the
// handler maps to a client-fault status.
func requireRequestError(t *testing.T, err error, body string) {
	t.Helper()
	var re *RequestError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, not *RequestError: %v\nbody: %q", err, err, body)
	}
	if st := statusFor(err); st < 400 || st > 499 {
		t.Fatalf("statusFor = %d, want 4xx: %v\nbody: %q", st, err, body)
	}
}

// TestJSONResponseMatchesEncoder: the response encoder writes the bytes
// json.NewEncoder(w).Encode(resp) writes, trailing newline included —
// over random responses and the float format's edges: the 1e-6 and 1e21
// switches to exponent form, subnormals, -0, and NaN/±Inf (which
// encoding/json refuses, writing nothing).
func TestJSONResponseMatchesEncoder(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 123456789, 1e20, 1e-5,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1.5e-7, 1e-10, 1e-100,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e22, 1.5e300, -1e21, -1e-7,
		5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	reasons := []string{
		"", "stale calibration: drift detected", `quote " and \ backslash`, "<tag> & amp",
		"ctl \b\f\n\r\t \x00\x01\x1f \x7f", "bad utf8 \xff\xfe end", "sep \u2028 \u2029 para",
		"unicode é ≈ 😀", "\xed\xa0\x80 surrogate bytes",
	}
	rng := rand.New(rand.NewSource(9))
	var resps []Response
	for _, v := range values {
		resps = append(resps, Response{Value: v}, Response{Value: v, Degraded: true, Reason: "x", Batch: 3, Fast: true})
	}
	for _, r := range reasons {
		resps = append(resps, Response{Value: 2, Degraded: true, Reason: r})
	}
	for i := 0; i < 5000; i++ {
		r := Response{
			Value:    math.Float64frombits(rng.Uint64()),
			Degraded: rng.Intn(2) == 0,
			Batch:    rng.Intn(3) * rng.Intn(1<<20),
			Fast:     rng.Intn(2) == 0,
		}
		if i%2 == 0 {
			r.Value = math.Ldexp(rng.Float64(), rng.Intn(160)-80)
		}
		if rng.Intn(3) == 0 {
			b := make([]byte, rng.Intn(12))
			rng.Read(b)
			r.Reason = string(b)
		}
		resps = append(resps, r)
	}
	for _, r := range resps {
		var want bytes.Buffer
		_ = json.NewEncoder(&want).Encode(r)
		if got := AppendJSONResponse(nil, r); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%+v:\n got %q\nwant %q", r, got, want.Bytes())
		}
	}
}

// TestJSONDecodeAllocationFree pins a warm JSON decode into the workspace
// at zero allocations, for a comm query, a comp query, an explicit j,
// and p replication.
func TestJSONDecodeAllocationFree(t *testing.T) {
	ws := new(workspace)
	for _, body := range []string{
		`{"kind":"comm","dir":"to_host","sets":[{"n":20,"words":700},{"n":1,"words":4000}],"contenders":[{"comm_fraction":0.15,"msg_words":300},{"comm_fraction":0.55,"msg_words":1200,"io_fraction":0.1}]}`,
		`{"kind":"comp","dcomp":2.5,"contenders":[{"comm_fraction":0.15,"msg_words":300},{"comm_fraction":0.35,"msg_words":40}]}`,
		`{"kind":"comp","dcomp":2.5,"j":500,"contenders":[{"comm_fraction":0.4,"msg_words":900}]}`,
		`{"kind":"comp","dcomp":1,"p":8,"contenders":[{"comm_fraction":0.2,"msg_words":100}]}`,
	} {
		rd := strings.NewReader(body)
		if err := (jsonWire{}).decode(rd, ws); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			rd.Reset(body)
			if err := (jsonWire{}).decode(rd, ws); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("warm JSON decode allocates %.1f objects/op, want 0: %s", allocs, body)
		}
	}
}
