package hgio

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/rng"
)

// FuzzDecodeCanonical is the differential check of the canonical fast
// path: on arbitrary bytes, DecodeBinary (fast path, Builder fallback)
// and decodeBuilder alone must agree on the verdict, the error text,
// the decoded graph and its Digest. The fast path must also take every
// body that is exactly the WriteBinary encoding of what it decodes to.
func FuzzDecodeCanonical(f *testing.F) {
	f.Add(binaryBody(f, hypergraph.RandomMixed(rng.New(5), 30, 40, 2, 5)))
	// n=6, edges {0,3,5} {1,2} {4}; the mutants below edit this body.
	base := []byte("HGB1\x06\x03" + "\x03\x00\x03\x02" + "\x02\x01\x01" + "\x01\x04")
	f.Add(base)
	for _, mutant := range []string{
		"HGB1\x06\x03" + "\x03\x80\x00\x03\x02" + "\x02\x01\x01" + "\x01\x04",              // non-minimal varint
		"HGB1\x06\x03" + "\x04\x00\x03\x00\x02" + "\x02\x01\x01" + "\x01\x04",              // zero delta
		"HGB1\x06\x03" + "\x02\x01\x01" + "\x03\x00\x03\x02" + "\x01\x04",                  // unsorted edge list
		"HGB1\x06\x04" + "\x03\x00\x03\x02" + "\x02\x01\x01" + "\x02\x01\x01" + "\x01\x04", // duplicate edge
		"HGB1\x06\x03" + "\x03\x00\x03\x02" + "\x02\x01\x01" + "\x01\x06",                  // out-of-range vertex
		"HGB1\x06\x03" + "\x03\x00\x03\x02" + "\x02\x01\x01" + "\x01",                      // truncated
		"HGB1\x06\x03" + "\x03\x00\x03\x02" + "\x02\x01\x01" + "\x01\x04\x00",              // trailing bytes
	} {
		f.Add([]byte(mutant))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		fast, fastErr := DecodeBinary(body)
		slow, slowErr := decodeBuilder(body)
		if (fastErr == nil) != (slowErr == nil) || (fastErr != nil && fastErr.Error() != slowErr.Error()) {
			t.Fatalf("verdicts differ: fast path %v, Builder path %v", fastErr, slowErr)
		}
		if fastErr != nil {
			return
		}
		if fast.N() != slow.N() || fast.M() != slow.M() || fast.Dim() != slow.Dim() {
			t.Fatalf("shapes differ: fast path %v, Builder path %v", fast, slow)
		}
		for i := range fast.Edges() {
			if !slices.Equal(fast.Edge(i), slow.Edge(i)) {
				t.Fatalf("edge %d differs: fast path %v, Builder path %v", i, fast.Edge(i), slow.Edge(i))
			}
		}
		if Digest(fast) != Digest(slow) {
			t.Fatalf("digests differ: fast path %s, Builder path %s", Digest(fast), Digest(slow))
		}
		canonical := bytes.Equal(body, binaryBody(t, slow))
		if took := fast.DigestMemo() != ""; took != canonical {
			t.Fatalf("fast path taken = %t on a body whose canonicity is %t", took, canonical)
		}
	})
}
