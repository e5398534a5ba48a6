package workload

import "testing"

// The benchmark's claim to repeatability rests on this: the same seed
// gives the same inputs, and another seed gives others.
func TestSameSeedSameStream(t *testing.T) {
	a, err := Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Generate(8)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 20000
	if a.StreamHash(ops) != b.StreamHash(ops) {
		t.Error("same seed, different streams")
	}
	if a.StreamHash(ops) == c.StreamHash(ops) {
		t.Error("different seeds, same stream")
	}
}

func TestPopulationShape(t *testing.T) {
	in, err := Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.IPs) != in.NFeed+UnknownSize || in.NFeed > FeedSize || in.NFeed < FeedSize-10 {
		t.Fatalf("population of %d with %d feed addresses", len(in.IPs), in.NFeed)
	}
	seen := make(map[string]bool, len(in.IPs))
	for _, ip := range in.IPs {
		if seen[ip] {
			t.Fatalf("address %s appears twice", ip)
		}
		seen[ip] = true
	}
	if len(in.Hot) != HotSetSize {
		t.Fatalf("hot set of %d", len(in.Hot))
	}
	for _, h := range in.Hot {
		if int(h) >= in.NFeed || in.Malicious[h] {
			t.Errorf("hot address %s is not feed-benign", in.IPs[h])
		}
	}
	if in.Feed[0].Malicious {
		t.Error("the feed's first sample, powserver's fallback profile, is malicious")
	}
	// Every solving client is an unknown address or a hot one; every fifth
	// op of the mix is hot.
	hot := 0
	for i := uint64(0); i < 10000; i++ {
		idx := in.MixIP(i, true)
		if HotOp(i) {
			hot++
		} else if int(idx) < in.NFeed {
			t.Fatalf("op %d: cold solving client %s is a feed address", i, in.IPs[idx])
		}
	}
	if hot != 2000 {
		t.Errorf("%d hot ops in 10000, want 2000", hot)
	}
	// The visit stream keeps its announced proportions.
	var acts [3]int
	for v := uint64(0); v < 100000; v++ {
		vis := in.Visit(v)
		acts[vis.Action]++
		if vis.Other == vis.IP {
			t.Fatalf("visit %d presents a wrong-binding token from its own address", v)
		}
	}
	for act, want := range [3]int{45000, 40000, 15000} {
		if d := acts[act] - want; d < -1500 || d > 1500 {
			t.Errorf("action %d: %d of 100000 visits, want about %d", act, acts[act], want)
		}
	}
}
