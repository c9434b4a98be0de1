package core

import (
	"math"
	"testing"
)

// fuzzContenders decodes three bytes per contender. The fractions are
// coarse (sixteenths), so ties on qm, ties on (qm, qc) and sets already
// in order are what the fuzzer finds first; a high nibble of 15 asks for
// an edge value instead — -0.0, 1, an I/O fraction that vanishes in qc,
// a contender the kernel must reject.
func fuzzContenders(data []byte) []Contender {
	cs := make([]Contender, 0, len(data)/3)
	for ; len(data) >= 3; data = data[3:] {
		ct := Contender{
			CommFraction: float64(data[0]&15) / 16,
			IOFraction:   float64(data[1]&15) / 16,
			MsgWords:     int(data[2]) * 8,
		}
		if ct.CommFraction+ct.IOFraction > 1 {
			ct.IOFraction = 1 - ct.CommFraction
		}
		if data[0]>>4 == 15 {
			ct.CommFraction = []float64{math.Copysign(0, -1), 1, -0.25, math.NaN()}[data[1]>>6]
			ct.IOFraction = 0
		} else if data[1]>>4 == 15 {
			ct.IOFraction = float64(data[1]&3) * 0x1p-56
		}
		cs = append(cs, ct)
	}
	return cs
}

// FuzzKernelOrder: on any contender set the kernel returns the parent
// kernel's bits (referenceDistributions) or its error, and the same
// bits again for the set in another order. The seed corpus is
// testdata/fuzz/FuzzKernelOrder.
func FuzzKernelOrder(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*80 {
			data = data[:3*80]
		}
		cs := fuzzContenders(data)
		wantComp, wantComm, wantErr := referenceDistributions(cs)
		comp, comm, err := kernelDistributions(cs)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("kernel err %v, parent %v\nset %+v", err, wantErr, cs)
			}
			return
		}
		if err != nil || !sameBits(comp, wantComp) || !sameBits(comm, wantComm) {
			t.Fatalf("kernel differs from parent (err %v)\nset  %+v\ncomp %v\nwant %v\ncomm %v\nwant %v",
				err, cs, comp, wantComp, comm, wantComm)
		}

		// Another order: rotated by a data-dependent amount and reversed.
		other := make([]Contender, len(cs))
		for i, ct := range cs {
			other[len(cs)-1-(i+len(data))%len(cs)] = ct
		}
		comp, comm, err = kernelDistributions(other)
		if err != nil || !sameBits(comp, wantComp) || !sameBits(comm, wantComm) {
			t.Fatalf("kernel differs from itself on another order (err %v)\nset  %+v\ncomp %v\nwant %v\ncomm %v\nwant %v",
				err, other, comp, wantComp, comm, wantComm)
		}
	})
}
