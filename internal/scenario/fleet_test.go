package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// fleetAnswersDigest is the SHA-256 of every fleet answer
// TestFleetAnswersMatchReplica collects — status, the Content-Type,
// Retry-After and X-Request-Id headers, and the body — as the router
// gave them when it forwarded each request over HTTP and passed the
// replica's bytes through. The frame hop must give the same bytes.
const fleetAnswersDigest = "832bc50514e0338ac3fd72806b84e1cf4044667307a1927d2d25dc5309ecb7b5"

// TestFleetAnswersMatchReplica is the fleet's bit-for-bit differential
// over the scenario corpus, both wires, with malformed bodies and client
// request ids spliced in. Issued one at a time (so every answer is a
// batch of one), each request gets the same status from the 2-replica
// fleet as from a single replica, and every 200 the same body; and the
// fleet's answers, headers included, hash to the digest pinned above.
func TestFleetAnswersMatchReplica(t *testing.T) {
	sc := replayScenario(t, 2000)
	items, err := sc.Schedule(7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	n := 300
	if len(items) < n {
		t.Fatalf("schedule produced %d items, need %d", len(items), n)
	}
	fleet, err := SelfServeFleet(2, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	single, err := SelfServe(200*time.Microsecond, false)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	client := Client(1)
	defer client.CloseIdleConnections()

	type answer struct {
		status int
		header http.Header
		body   []byte
	}
	post := func(url, contentType, rid string, body []byte) answer {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		if rid != "" {
			req.Header.Set("X-Request-Id", rid)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return answer{resp.StatusCode, resp.Header, b}
	}
	digest := sha256.New()
	for _, format := range []string{FormatJSON, FormatBinary} {
		contentType := ContentType(format)
		for i, it := range items[:n] {
			body, err := EncodeItem(it, format)
			if err != nil {
				t.Fatal(err)
			}
			switch i % 50 {
			case 17:
				body = body[:len(body)/2] // truncated
			case 33:
				body = append(body, '!') // trailing byte
			}
			// Every request carries an id, so error envelopes are
			// reproducible; every third is the client's own.
			rid := "rid-" + strconv.Itoa(i)
			if i%3 == 0 {
				rid = ""
			}
			got, want := post(fleet.URL(), contentType, rid, body), post(single.URL(), contentType, rid, body)
			if got.status != want.status || (got.status == http.StatusOK && !bytes.Equal(got.body, want.body)) {
				t.Fatalf("%s request %d: fleet %d %q, replica %d %q", format, i, got.status, got.body, want.status, want.body)
			}
			if rid == "" && got.status != http.StatusOK {
				continue // the envelope carries a minted id
			}
			fmt.Fprintf(digest, "%s %d %d %q %q %q %q\n", format, i, got.status, got.header.Get("Content-Type"),
				got.header.Get("Retry-After"), got.header.Get("X-Request-Id"), got.body)
		}
	}
	if sum := hex.EncodeToString(digest.Sum(nil)); sum != fleetAnswersDigest {
		t.Fatalf("fleet answers digest %s, want %s", sum, fleetAnswersDigest)
	}
}
