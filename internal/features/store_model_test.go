package features

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// storeModel is the reference a MapStore is checked against: a map of
// maps, read through fillFromMap.
type storeModel struct {
	fallback map[string]float64
	byIP     map[string]map[string]float64
}

func (m *storeModel) profile(ip string) map[string]float64 {
	if attrs, ok := m.byIP[ip]; ok {
		return attrs
	}
	return m.fallback
}

// names returns every attribute name the model has seen, sorted.
func (m *storeModel) names() []string {
	seen := make(map[string]bool)
	for name := range m.fallback {
		seen[name] = true
	}
	for _, attrs := range m.byIP {
		for name := range attrs {
			seen[name] = true
		}
	}
	var out []string
	for name := range seen {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// The universe of a differential run: modelIPs addresses, of which a run
// may never register some (they read the fallback), and modelNames
// attribute names. The fallback and the fixed schemas start at "a10", so
// a Put naming one of a00–a09 inserts a column before theirs and breaks
// the identity layout.
const (
	modelIPs   = 10
	modelNames = 80
)

func modelIP(i byte) string   { return fmt.Sprintf("10.0.0.%d", int(i)%modelIPs) }
func modelName(i byte) string { return fmt.Sprintf("a%02d", int(i)%modelNames) }

func mustSchema(t testing.TB, names ...string) *Schema {
	t.Helper()
	s, err := NewSchema(names...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkStoreOps drives a MapStore and a storeModel with the ops data
// encodes and fails on the first read on which they differ. data[0]
// picks the fallback profile; the rest is a stream of ops:
//
//	0, ip, n, (name, value)×n   Put a profile of n%17 attributes
//	1, ip, schema               AttributesVector and Attributes
//	2, n, schema, ip×n          AttributesVectorBatch over n%6 IPs
//
// Reads run over the fixed schemas (the fallback's names in order, the
// same reversed and widened, and one naming an attribute the store never
// holds) and over a schema of the store's current sorted names, which
// the store lays out as the identity.
func checkStoreOps(t testing.TB, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	var fallback map[string]float64
	switch data[0] % 3 {
	case 0:
		fallback = map[string]float64{}
	case 1:
		fallback = map[string]float64{"a12": 3}
	default:
		fallback = make(map[string]float64)
		for i := byte(10); i < 20; i++ {
			fallback[modelName(i)] = float64(i)
		}
	}
	s, err := NewMapStore(fallback)
	if err != nil {
		t.Fatal(err)
	}
	m := &storeModel{fallback: maps.Clone(fallback), byIP: make(map[string]map[string]float64)}

	var ident, reversed []string
	for i := byte(10); i < 20; i++ {
		ident = append(ident, modelName(i))
	}
	for i := 19; i >= 10; i-- {
		reversed = append(reversed, modelName(byte(i)))
	}
	schemas := []*Schema{
		mustSchema(t, ident...),
		mustSchema(t, append(reversed, "a31", "a75")...),
		mustSchema(t, "a11", "zz_not_in_store", "a05"),
		nil, // the store's current names, rebuilt as they grow
	}
	current := func() *Schema {
		names := m.names()
		if len(names) > MaxSchemaAttrs {
			names = names[:MaxSchemaAttrs]
		}
		if schemas[3] == nil || schemas[3].Len() != len(names) {
			schemas[3] = mustSchema(t, names...)
		}
		return schemas[3]
	}

	next := func(b *[]byte) byte {
		if len(*b) == 0 {
			return 0
		}
		v := (*b)[0]
		*b = (*b)[1:]
		return v
	}
	for b, op := data[1:], 0; len(b) > 0; op++ {
		switch next(&b) % 3 {
		case 0:
			ip := modelIP(next(&b))
			attrs := make(map[string]float64)
			for n := next(&b) % 17; n > 0; n-- {
				attrs[modelName(next(&b))] = float64(int8(next(&b))) / 4
			}
			s.Put(ip, attrs)
			m.byIP[ip] = attrs
		case 1:
			ip := modelIP(next(&b))
			schema := schemas[int(next(&b))%len(schemas)]
			if schema == nil {
				schema = current()
			}
			got, want := schema.NewVector(), schema.NewVector()
			gotMask := s.AttributesVector(got, schema, ip, time.Time{})
			wantMask := fillFromMap(want, m.profile(ip), schema)
			if gotMask != wantMask || !slices.Equal(got, want) {
				t.Fatalf("op %d: AttributesVector(%s, %q) = %v/%b, want %v/%b",
					op, ip, schema.Names(), got, gotMask, want, wantMask)
			}
			if attrs := s.Attributes(ip, time.Time{}); !maps.Equal(attrs, m.profile(ip)) {
				t.Fatalf("op %d: Attributes(%s) = %v, want %v", op, ip, attrs, m.profile(ip))
			}
			if s.Len() != len(m.byIP) {
				t.Fatalf("op %d: Len() = %d, want %d", op, s.Len(), len(m.byIP))
			}
		case 2:
			ips := make([]string, next(&b)%6)
			schema := schemas[int(next(&b))%len(schemas)]
			if schema == nil {
				schema = current()
			}
			for i := range ips {
				ips[i] = modelIP(next(&b))
			}
			stride := schema.Len() + 2
			dst := make([]float64, len(ips)*stride)
			masks := make([]uint64, len(ips))
			s.AttributesVectorBatch(dst, stride, schema, ips, masks, time.Time{})
			for i, ip := range ips {
				want := make([]float64, stride)
				wantMask := fillFromMap(want, m.profile(ip), schema)
				if got := dst[i*stride : (i+1)*stride]; masks[i] != wantMask || !slices.Equal(got, want) {
					t.Fatalf("op %d: batch row %d (%s, %q) = %v/%b, want %v/%b",
						op, i, ip, schema.Names(), got, masks[i], want, wantMask)
				}
			}
		}
	}
}

// randomStoreOps encodes a random run of n ops for checkStoreOps.
func randomStoreOps(rng *rand.Rand, n int) []byte {
	data := []byte{byte(rng.IntN(3))}
	for i := 0; i < n; i++ {
		switch kind := byte(rng.IntN(3)); kind {
		case 0:
			width := rng.IntN(17)
			data = append(data, kind, byte(rng.IntN(modelIPs)), byte(width))
			for j := 0; j < width; j++ {
				data = append(data, byte(rng.IntN(modelNames)), byte(rng.IntN(256)))
			}
		case 1:
			data = append(data, kind, byte(rng.IntN(modelIPs+2)), byte(rng.IntN(4)))
		case 2:
			n := rng.IntN(6)
			data = append(data, kind, byte(n), byte(rng.IntN(4)))
			for j := 0; j < n; j++ {
				data = append(data, byte(rng.IntN(modelIPs)))
			}
		}
	}
	return data
}

// TestMapStoreMatchesModel checks random runs against the map-of-maps
// reference. Runs are long enough to name all 80 attributes, so the
// table passes 64 columns.
func TestMapStoreMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 55))
	for run := 0; run < 200; run++ {
		data := randomStoreOps(rng, 150)
		t.Run(fmt.Sprint(run), func(t *testing.T) { checkStoreOps(t, data) })
	}
}

func FuzzMapStore(f *testing.F) {
	// Put a full profile, read it through every schema, then add a00 (a
	// column before the fallback's) and read again.
	f.Add([]byte{2, 0, 1, 3, 10, 4, 11, 8, 12, 255, 1, 1, 0, 1, 1, 1, 1, 1, 2, 1, 1, 3,
		0, 2, 1, 0, 40, 1, 1, 0, 1, 2, 0, 2, 4, 3, 1, 2, 9})
	// Empty and partial profiles, a replacement, and a batch that mixes
	// known and unknown IPs.
	f.Add([]byte{1, 0, 3, 0, 0, 4, 2, 12, 0, 30, 8, 0, 4, 1, 12, 7, 2, 4, 0, 3, 4, 5, 9,
		0, 3, 1, 12, 1, 2, 3, 1, 3, 4})
	// Five 16-attribute profiles: the table passes 64 columns.
	wide := []byte{0}
	for i := 0; i < 5; i++ {
		wide = append(wide, 0, byte(i), 16)
		for j := 0; j < 16; j++ {
			wide = append(wide, byte(i*16+j), byte(i+j))
		}
		wide = append(wide, 1, byte(i), 3, 2, 5, 3, 0, 1, 2, 3, 4)
	}
	f.Add(wide)
	f.Add(randomStoreOps(rand.New(rand.NewPCG(1, 2)), 60))
	f.Fuzz(func(t *testing.T, data []byte) { checkStoreOps(t, data) })
}

// TestMapStoreConcurrentGrowth races fills against Puts that keep adding
// columns; run under -race it guards the table swap and the layout cache.
// Every value the writer stores is its column's number, so a reader can
// check a covered slot without knowing which Puts it saw.
func TestMapStoreConcurrentGrowth(t *testing.T) {
	s, err := NewMapStore(map[string]float64{"a40": 40, "a41": 41})
	if err != nil {
		t.Fatal(err)
	}
	schemas := []*Schema{
		mustSchema(t, "a40", "a41"),
		mustSchema(t, "a41", "a40", "a05", "a79"),
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < modelNames; i++ {
			attrs := map[string]float64{"a40": 40, "a41": 41}
			for j := 0; j <= i; j++ {
				attrs[modelName(byte(j))] = float64(j)
			}
			s.Put(modelIP(byte(i)), attrs)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ips := []string{modelIP(0), modelIP(3), "192.0.2.1"}
			for i := 0; i < 400; i++ {
				schema := schemas[(w+i)%len(schemas)]
				stride := schema.Len() + 1
				dst := make([]float64, len(ips)*stride)
				masks := make([]uint64, len(ips))
				if i%2 == 0 {
					s.AttributesVectorBatch(dst, stride, schema, ips, masks, time.Time{})
				} else {
					masks[0] = s.AttributesVector(dst[:schema.Len()], schema, ips[0], time.Time{})
				}
				for r, mask := range masks {
					for j := 0; j < schema.Len(); j++ {
						want := 0.0
						if mask&(1<<j) != 0 {
							fmt.Sscanf(schema.Name(j), "a%f", &want)
						}
						if got := dst[r*stride+j]; got != want {
							t.Errorf("row %d slot %q = %v, want %v (mask %b)", r, schema.Name(j), got, want, mask)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMapStoreMemoryBudget pins the table's size at the feed's shape,
// 20 000 rows of 10 attributes, and checks that serving more schemas
// costs only their layouts, never a per-schema copy of the store.
func TestMapStoreMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 20 000-row store")
	}
	const rows, width = 20_000, 10
	heapInUse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	names := make([]string, width)
	fallback := make(map[string]float64, width)
	for j := range names {
		names[j] = fmt.Sprintf("attr_%d", j)
		fallback[names[j]] = float64(j)
	}
	attrs := maps.Clone(fallback)
	reversed := slices.Clone(names)
	slices.Reverse(reversed)

	before := heapInUse()
	s, err := NewMapStore(fallback)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		attrs[names[i%width]] = float64(i)
		s.Put(fmt.Sprintf("10.%d.%d.%d", i>>16, i>>8&0xff, i&0xff), attrs)
	}
	schemas := []*Schema{
		mustSchema(t, names...),
		mustSchema(t, reversed...),
		mustSchema(t, names[3], names[1], "not_in_store"),
	}
	s.AttributesVector(schemas[0].NewVector(), schemas[0], "10.0.0.1", time.Time{})
	loaded := heapInUse()
	perRow := float64(int64(loaded)-int64(before)) / rows
	t.Logf("%.1f B per row", perRow)
	if perRow > 160 {
		t.Errorf("a %d × %d store holds %.1f B per row, over its 160 B budget", rows, width, perRow)
	}

	for _, schema := range schemas[1:] {
		s.AttributesVector(schema.NewVector(), schema, "10.0.0.1", time.Time{})
	}
	if grown := int64(heapInUse()) - int64(loaded); grown > 4<<10 {
		t.Errorf("serving two more schemas added %d B, over its 4 KiB budget", grown)
	}
	runtime.KeepAlive(s)
}
