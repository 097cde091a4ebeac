package workload

import (
	"reflect"
	"testing"

	"isex/internal/core"
	"isex/internal/interp"
)

func TestAllKernelsCompileAndRun(t *testing.T) {
	for _, k := range All() {
		t.Run(k.Name, func(t *testing.T) {
			m, err := k.Build()
			if err != nil {
				t.Fatal(err)
			}
			env, err := k.Run(m)
			if err != nil {
				t.Fatal(err)
			}
			if env.Steps() == 0 {
				t.Error("kernel executed no instructions")
			}
			for _, out := range k.Outputs {
				if _, err := env.GlobalSlice(out); err != nil {
					t.Errorf("output %s: %v", out, err)
				}
			}
		})
	}
}

func TestKernelsAreDeterministic(t *testing.T) {
	for _, k := range All() {
		m, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		img1, err := k.OutputImage(m)
		if err != nil {
			t.Fatal(err)
		}
		img2, err := k.OutputImage(m)
		if err != nil {
			t.Fatal(err)
		}
		for name := range img1 {
			for i := range img1[name] {
				if img1[name][i] != img2[name][i] {
					t.Fatalf("%s: %s[%d] differs across runs", k.Name, name, i)
				}
			}
		}
	}
}

// referenceAdpcmDecode is a direct Go port of the MediaBench decoder.
func referenceAdpcmDecode(deltas []int32, valprev, index int32) (pcm []int32, vp, idx int32) {
	indexTable := []int32{-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8}
	step := stepsizeTable[index]
	valpred := valprev
	for _, d := range deltas {
		delta := d & 15
		index += indexTable[delta]
		if index < 0 {
			index = 0
		}
		if index > 88 {
			index = 88
		}
		sign := delta & 8
		dmag := delta & 7
		vpdiff := step >> 3
		if dmag&4 != 0 {
			vpdiff += step
		}
		if dmag&2 != 0 {
			vpdiff += step >> 1
		}
		if dmag&1 != 0 {
			vpdiff += step >> 2
		}
		if sign != 0 {
			valpred -= vpdiff
		} else {
			valpred += vpdiff
		}
		if valpred > 32767 {
			valpred = 32767
		}
		if valpred < -32768 {
			valpred = -32768
		}
		step = stepsizeTable[index]
		pcm = append(pcm, valpred)
	}
	return pcm, valpred, index
}

var stepsizeTable = []int32{
	7, 8, 9, 10, 11, 12, 13, 14, 16, 17,
	19, 21, 23, 25, 28, 31, 34, 37, 41, 45,
	50, 55, 60, 66, 73, 80, 88, 97, 107, 118,
	130, 143, 157, 173, 190, 209, 230, 253, 279, 307,
	337, 371, 408, 449, 494, 544, 598, 658, 724, 796,
	876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
	2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358,
	5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899,
	15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
}

func referenceAdpcmEncode(samples []int32, valprev, index int32) (code []int32, vp, idx int32) {
	indexTable := []int32{-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8}
	step := stepsizeTable[index]
	valpred := valprev
	for _, val := range samples {
		diff := val - valpred
		var sign int32
		if diff < 0 {
			sign = 8
			diff = -diff
		}
		var delta int32
		vpdiff := step >> 3
		st := step
		if diff >= st {
			delta = 4
			diff -= st
			vpdiff += st
		}
		st >>= 1
		if diff >= st {
			delta |= 2
			diff -= st
			vpdiff += st
		}
		st >>= 1
		if diff >= st {
			delta |= 1
			vpdiff += st
		}
		if sign != 0 {
			valpred -= vpdiff
		} else {
			valpred += vpdiff
		}
		if valpred > 32767 {
			valpred = 32767
		}
		if valpred < -32768 {
			valpred = -32768
		}
		delta |= sign
		index += indexTable[delta]
		if index < 0 {
			index = 0
		}
		if index > 88 {
			index = 88
		}
		step = stepsizeTable[index]
		code = append(code, delta)
	}
	return code, valpred, index
}

func TestAdpcmDecodeAgainstReference(t *testing.T) {
	k := AdpcmDecode()
	m, err := k.Build()
	if err != nil {
		t.Fatal(err)
	}
	img, err := k.OutputImage(m)
	if err != nil {
		t.Fatal(err)
	}
	pcm, vp, idx := referenceAdpcmDecode(k.Inputs["deltas"], 0, 0)
	for i, want := range pcm {
		if img["pcm"][i] != want {
			t.Fatalf("pcm[%d] = %d, want %d", i, img["pcm"][i], want)
		}
	}
	if img["valprev"][0] != vp || img["index"][0] != idx {
		t.Errorf("state = (%d,%d), want (%d,%d)", img["valprev"][0], img["index"][0], vp, idx)
	}
}

func TestAdpcmEncodeAgainstReference(t *testing.T) {
	k := AdpcmEncode()
	m, err := k.Build()
	if err != nil {
		t.Fatal(err)
	}
	img, err := k.OutputImage(m)
	if err != nil {
		t.Fatal(err)
	}
	code, vp, idx := referenceAdpcmEncode(k.Inputs["samples"], 0, 0)
	for i, want := range code {
		if img["code"][i] != want {
			t.Fatalf("code[%d] = %d, want %d", i, img["code"][i], want)
		}
	}
	if img["valprev"][0] != vp || img["index"][0] != idx {
		t.Errorf("state = (%d,%d), want (%d,%d)", img["valprev"][0], img["index"][0], vp, idx)
	}
}

func TestAdpcmRoundTrip(t *testing.T) {
	// Encoding then decoding a slowly varying signal must track it
	// approximately (standard ADPCM property).
	enc, dec := AdpcmEncode(), AdpcmDecode()
	me, err := enc.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Continuous triangle wave (ADPCM tracks bounded slopes well).
	samples := make([]int32, adpcmLen)
	for i := range samples {
		v := int32(i%800) - 400
		if v < 0 {
			v = -v
		}
		samples[i] = v * 50
	}
	envE := interp.NewEnv(me)
	if err := envE.SetGlobal("samples", samples); err != nil {
		t.Fatal(err)
	}
	if _, _, err := envE.Call("adpcm_coder", adpcmLen); err != nil {
		t.Fatal(err)
	}
	code, _ := envE.GlobalSlice("code")

	md, err := dec.Build()
	if err != nil {
		t.Fatal(err)
	}
	envD := interp.NewEnv(md)
	if err := envD.SetGlobal("deltas", code); err != nil {
		t.Fatal(err)
	}
	if _, _, err := envD.Call("adpcm_decoder", adpcmLen); err != nil {
		t.Fatal(err)
	}
	pcm, _ := envD.GlobalSlice("pcm")
	var worst int32
	for i := 256; i < adpcmLen; i++ { // skip adaptation ramp-up
		d := pcm[i] - samples[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > 2000 {
		t.Errorf("round-trip error too large: %d", worst)
	}
}

func TestCRC32AgainstReference(t *testing.T) {
	k := CRC32()
	m, err := k.Build()
	if err != nil {
		t.Fatal(err)
	}
	img, err := k.OutputImage(m)
	if err != nil {
		t.Fatal(err)
	}
	crc := uint32(0xFFFFFFFF)
	for _, b := range k.Inputs["data"] {
		crc ^= uint32(b) & 255
		for kk := 0; kk < 8; kk++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ 0xEDB88320
			} else {
				crc >>= 1
			}
		}
	}
	crc ^= 0xFFFFFFFF
	if uint32(img["crcout"][0]) != crc {
		t.Errorf("crc = %08x, want %08x", uint32(img["crcout"][0]), crc)
	}
}

func TestSHA1AgainstReference(t *testing.T) {
	k := SHA1Round()
	m, err := k.Build()
	if err != nil {
		t.Fatal(err)
	}
	img, err := k.OutputImage(m)
	if err != nil {
		t.Fatal(err)
	}
	// Reference SHA-1 compression in uint32 arithmetic.
	var w [80]uint32
	for i := 0; i < 16; i++ {
		w[i] = uint32(k.Inputs["msg"][i])
	}
	for i := 16; i < 80; i++ {
		t := w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16]
		w[i] = t<<1 | t>>31
	}
	h := [5]uint32{}
	for i := range h {
		h[i] = uint32(k.Inputs["state"][i])
	}
	a, b, c, d, e := h[0], h[1], h[2], h[3], h[4]
	for i := 0; i < 80; i++ {
		var f, kk uint32
		switch {
		case i < 20:
			f, kk = (b&c)|((^b)&d), 0x5A827999
		case i < 40:
			f, kk = b^c^d, 0x6ED9EBA1
		case i < 60:
			f, kk = (b&c)|(b&d)|(c&d), 0x8F1BBCDC
		default:
			f, kk = b^c^d, 0xCA62C1D6
		}
		tmp := (a<<5 | a>>27) + f + e + kk + w[i]
		e, d, c, b, a = d, c, b<<30|b>>2, a, tmp
	}
	want := [5]uint32{h[0] + a, h[1] + b, h[2] + c, h[3] + d, h[4] + e}
	for i := range want {
		if uint32(img["state"][i]) != want[i] {
			t.Errorf("state[%d] = %08x, want %08x", i, uint32(img["state"][i]), want[i])
		}
	}
}

func TestFIRAgainstReference(t *testing.T) {
	k := FIR()
	m, err := k.Build()
	if err != nil {
		t.Fatal(err)
	}
	img, err := k.OutputImage(m)
	if err != nil {
		t.Fatal(err)
	}
	x, h := k.Inputs["x"], k.Inputs["h"]
	for i := 0; i < 256; i++ {
		var acc int32
		for j := 0; j < 16; j++ {
			kdx := i - j
			var v int32
			if kdx >= 0 {
				v = x[kdx]
			}
			acc += (v * h[j]) >> 8
		}
		if acc > 32767 {
			acc = 32767
		}
		if acc < -32768 {
			acc = -32768
		}
		if img["y"][i] != acc {
			t.Fatalf("y[%d] = %d, want %d", i, img["y"][i], acc)
		}
	}
}

// TestIdentifyAndPatchAllKernels is the end-to-end integration property:
// for every kernel, selecting ISEs with the iterative algorithm and
// patching them into the IR must leave all outputs bit-identical.
func TestIdentifyAndPatchAllKernels(t *testing.T) {
	for _, k := range All() {
		t.Run(k.Name, func(t *testing.T) {
			ref, err := k.Build()
			if err != nil {
				t.Fatal(err)
			}
			refImg, err := k.OutputImage(ref)
			if err != nil {
				t.Fatal(err)
			}
			m, err := k.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{Nin: 4, Nout: 2, MaxCuts: 2_000_000}
			sel := core.SelectIterative(m, 8, cfg)
			if len(sel.Instructions) == 0 {
				t.Fatalf("%s: no instructions identified", k.Name)
			}
			afus, skipped, err := core.ApplySelection(m, sel.Instructions, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(afus) == 0 {
				t.Fatal("no AFUs created")
			}
			_ = skipped
			interp.ClearProfile(m)
			gotImg, err := k.OutputImage(m)
			if err != nil {
				t.Fatal(err)
			}
			for name := range refImg {
				for i := range refImg[name] {
					if gotImg[name][i] != refImg[name][i] {
						t.Fatalf("%s: %s[%d] = %d, want %d",
							k.Name, name, i, gotImg[name][i], refImg[name][i])
					}
				}
			}
		})
	}
}

// TestPatchSkipPath patches a selection the patcher cannot fully
// materialize: at this configuration sha's iterative selection holds a
// cut that is convex in the DFG but unschedulable once the patcher adds
// the register anti-dependences the DFG does not model. Every selected
// cut must come back either as an AFU or in skipped, and the patched
// program must still compute the original outputs. How many cuts are
// skipped is deliberately not asserted.
func TestPatchSkipPath(t *testing.T) {
	k := ByName("sha")
	ref, err := k.Build()
	if err != nil {
		t.Fatal(err)
	}
	refImg, err := k.OutputImage(ref)
	if err != nil {
		t.Fatal(err)
	}
	m, err := k.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Nin: 4, Nout: 3, MaxCuts: 2_000_000, PruneInputs: true, PruneMerit: true}
	sel := core.SelectIterative(m, 8, cfg)
	afus, skipped, err := core.ApplySelection(m, sel.Instructions, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(afus)+len(skipped) != len(sel.Instructions) {
		t.Fatalf("%d AFUs + %d skipped != %d selected", len(afus), len(skipped), len(sel.Instructions))
	}
	for _, s := range skipped {
		found := false
		for _, in := range sel.Instructions {
			if reflect.DeepEqual(s, in) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("skipped cut %s/%s %v (merit %d) is not in the selection",
				s.Fn.Name, s.Block.Name, s.InstrIndexes, s.Est.Merit)
		}
	}
	t.Logf("%d of %d cuts skipped", len(skipped), len(sel.Instructions))
	interp.ClearProfile(m)
	gotImg, err := k.OutputImage(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotImg, refImg) {
		t.Fatalf("patched outputs diverged:\n got %v\nwant %v", gotImg, refImg)
	}
}

func TestSynthesizeShapes(t *testing.T) {
	for _, spec := range []SyntheticSpec{
		{Ops: 10, Seed: 1, LiveOuts: 2},
		{Ops: 40, Seed: 2, BarrierRatio: 0.3, FanoutBias: 0.9, LiveOuts: 4},
		{Ops: 5, Seed: 3, BarrierRatio: 1.0},
	} {
		g := Synthesize(spec)
		if g.NumOps() < spec.Ops {
			t.Errorf("spec %+v: ops = %d", spec, g.NumOps())
		}
		// Search order invariant: consumers before producers.
		for _, id := range g.OpOrder {
			for _, s := range g.Nodes[id].Succs {
				if g.Nodes[s].Kind == 0 /* KindOp */ && g.Pos(s) >= g.Pos(id) {
					t.Fatalf("order violated")
				}
			}
		}
	}
	// Determinism.
	a := Synthesize(SyntheticSpec{Ops: 12, Seed: 9})
	b := Synthesize(SyntheticSpec{Ops: 12, Seed: 9})
	if a.NumOps() != b.NumOps() || len(a.Nodes) != len(b.Nodes) {
		t.Error("synthesis not deterministic")
	}
}

func TestRealBlockGraphsPopulation(t *testing.T) {
	blocks, err := RealBlockGraphs()
	if err != nil {
		t.Fatal(err)
	}
	kernels := map[string]bool{}
	maxN := 0
	for _, bi := range blocks {
		kernels[bi.Kernel] = true
		if bi.Graph.NumOps() > maxN {
			maxN = bi.Graph.NumOps()
		}
	}
	if len(kernels) != len(All()) {
		t.Errorf("population covers %d kernels, suite has %d", len(kernels), len(All()))
	}
	if maxN < 100 {
		t.Errorf("largest block %d nodes; expected >100 (g721/dct bodies)", maxN)
	}
}

func TestKernelErrorPaths(t *testing.T) {
	if ByName("nope") != nil {
		t.Error("unknown kernel resolved")
	}
	k := &Kernel{Name: "bad", Source: "int f( {", Entry: "f"}
	if _, err := k.Build(); err == nil {
		t.Error("bad source accepted")
	}
	k2 := &Kernel{Name: "badglobal", Source: "int f() { return 0; }", Entry: "f",
		Inputs: map[string][]int32{"missing": {1}}}
	m, err := k2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k2.NewEnv(m); err == nil {
		t.Error("missing input global accepted")
	}
	k3 := &Kernel{Name: "badentry", Source: "int f() { return 0; }", Entry: "missing"}
	m3, err := k3.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k3.Run(m3); err == nil {
		t.Error("missing entry accepted")
	}
	if _, err := k3.Prepare(); err == nil {
		t.Error("Prepare with missing entry accepted")
	}
}
