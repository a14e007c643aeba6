package recognize

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/process"
)

// memoMatchesFresh recognizes c with the shape memo and with every group
// derived afresh, and fails unless the two agree: the same dumpResult
// text, the same output functions node for node and expression tree for
// expression tree, and the same ChannelPaths for every group's (output,
// rail), (rail, output) and (channel input, output) pairs — and, in a
// group with at most 12 channel nets, between any two of its channel
// nets and the rails. It returns how many groups reused an earlier group
// of their shape.
func memoMatchesFresh(t *testing.T, name string, c *netlist.Circuit) int {
	t.Helper()
	fresh, err := analyzeWith(c, false)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	memo, err := analyzeWith(c, true)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want, got := dumpResult(fresh), dumpResult(memo); got != want {
		t.Fatalf("%s: the shape memo changes recognition:\n%s\nwant:\n%s", name, got, want)
	}
	rails := []netlist.NodeID{c.FindNode(netlist.VddName), c.FindNode(netlist.VssName)}
	reused := 0
	seen := make(map[int]bool)
	for gi, g := range fresh.Groups {
		mg := memo.Groups[gi]
		if mg.shape != 0 {
			if seen[mg.shape] {
				reused++
			}
			seen[mg.shape] = true
		}
		if !reflect.DeepEqual(g.Funcs, mg.Funcs) {
			t.Fatalf("%s: group %d: the shape memo changes the output functions", name, gi)
		}
		var pairs [][2]netlist.NodeID
		if ends := append(append(slices.Clone(rails), g.Outputs...), g.Internal...); len(ends) <= 14 {
			for _, a := range ends {
				for _, b := range ends {
					pairs = append(pairs, [2]netlist.NodeID{a, b})
				}
			}
		} else {
			for _, out := range g.Outputs {
				for _, rail := range rails {
					pairs = append(pairs, [2]netlist.NodeID{out, rail}, [2]netlist.NodeID{rail, out})
				}
				for _, ci := range g.ChannelInputs {
					pairs = append(pairs, [2]netlist.NodeID{ci, out})
				}
			}
		}
		for _, p := range pairs {
			want := pathNames(fresh.ChannelPaths(g, p[0], p[1]))
			if got := pathNames(memo.ChannelPaths(mg, p[0], p[1])); got != want {
				t.Fatalf("%s: group %d: ChannelPaths(%s, %s) = %s with the shape memo, want %s",
					name, gi, c.NodeName(p[0]), c.NodeName(p[1]), got, want)
			}
		}
	}
	return reused
}

// pathNames renders a path set as its device names.
func pathNames(paths [][]*netlist.Device) string {
	var sb strings.Builder
	for _, p := range paths {
		sb.WriteByte('[')
		for i, d := range p {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(d.Name)
		}
		sb.WriteByte(']')
	}
	return sb.String()
}

// TestShapeMemoMatchesFresh holds the shape memo against fresh
// recognition of every group over the pin corpus, whose datapaths repeat
// a few shapes many times.
func TestShapeMemoMatchesFresh(t *testing.T) {
	reused := 0
	for _, d := range pinCorpus(t) {
		reused += memoMatchesFresh(t, d.name, d.c)
	}
	if reused == 0 {
		t.Fatal("no group reused its shape: the memo went untested")
	}
}

// TestChannelPathsConcurrent asks one Result for the paths of every
// group from several goroutines at once, each walking the groups in its
// own order, as fleet workers share a cached recognition. Every answer
// must match fresh recognition's, whichever group of a shape fills the
// shape's path set first.
func TestChannelPathsConcurrent(t *testing.T) {
	c := designs.DominoAdder(8)
	fresh, err := analyzeWith(c, false)
	if err != nil {
		t.Fatal(err)
	}
	memo, err := analyzeWith(c, true)
	if err != nil {
		t.Fatal(err)
	}
	rails := []netlist.NodeID{c.FindNode(netlist.VddName), c.FindNode(netlist.VssName)}
	want := make(map[[3]int]string)
	for gi, g := range fresh.Groups {
		for _, out := range g.Outputs {
			for _, rail := range rails {
				want[[3]int{gi, int(out), int(rail)}] = pathNames(fresh.ChannelPaths(g, out, rail))
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := len(memo.Groups)
			for i := range n {
				gi := (i + w*n/4) % n
				if w%2 == 1 {
					gi = n - 1 - gi
				}
				g := memo.Groups[gi]
				for _, out := range g.Outputs {
					for _, rail := range rails {
						key := [3]int{gi, int(out), int(rail)}
						if got := pathNames(memo.ChannelPaths(g, out, rail)); got != want[key] {
							t.Errorf("group %d: ChannelPaths(%s, %s) = %s, want %s", gi, c.NodeName(out), c.NodeName(rail), got, want[key])
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// decodeShapeCircuit turns fuzz input into a circuit of repeated group
// structures. Every byte string decodes; a missing byte reads as 0. The
// input describes 1–3 templates, each of 1–6 NMOS or PMOS devices over
// 1–4 local nets. A device's gate is a rail, one of the inputs a, b and
// phi, or a local net; each channel terminal is a rail, the pass input
// d or a local net. Each template is placed 2–4 times with fresh local
// nets. One flag byte per copy chooses whether its inputs and its pass
// input are the shared nets or its own, and whether one more local net
// besides net 0 is a port, so copies of one template can differ in
// outputs.
func decodeShapeCircuit(data []byte) *netlist.Circuit {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	c := netlist.New("shapes")
	templates := 1 + next()%3
	for t := 0; t < templates; t++ {
		nets := 1 + next()%4
		type dev struct {
			typ     process.DeviceType
			g, s, d int
		}
		devs := make([]dev, 1+next()%6)
		for i := range devs {
			devs[i] = dev{process.DeviceType(next() % 2), next() % (5 + nets), next() % (3 + nets), next() % (3 + nets)}
		}
		copies := 2 + next()%3
		for k := 0; k < copies; k++ {
			flags := next()
			prefix := fmt.Sprintf("t%dc%d/", t, k)
			input := func(name string, own bool) string {
				if own {
					return prefix + name
				}
				return name
			}
			local := func(j int) string { return fmt.Sprintf("%sn%d", prefix, j) }
			gate := func(v int) string {
				switch v {
				case 0:
					return netlist.VddName
				case 1:
					return netlist.VssName
				case 2, 3, 4:
					return input([]string{"a", "b", "phi"}[v-2], flags&1 != 0)
				}
				return local(v - 5)
			}
			channel := func(v int) string {
				switch v {
				case 0:
					return netlist.VddName
				case 1:
					return netlist.VssName
				case 2:
					return input("d", flags&2 != 0)
				}
				return local(v - 3)
			}
			c.DeclarePort(local(0))
			if flags&4 != 0 {
				c.DeclarePort(local((flags >> 3) % nets))
			}
			for i, d := range devs {
				g, s, dr := gate(d.g), channel(d.s), channel(d.d)
				if g == s && s == dr {
					dr = local(0)
					if dr == s {
						dr = netlist.VssName
					}
				}
				bulk := netlist.VssName
				if d.typ == process.PMOS {
					bulk = netlist.VddName
				}
				c.AddDevice(fmt.Sprintf("%sm%d", prefix, i), d.typ, g, s, dr, bulk, 1+float64(i%3), 0.75)
			}
		}
	}
	return c
}

// FuzzShapeMemo holds the shape memo against fresh recognition on
// generated circuits that repeat a few group structures, as
// TestShapeMemoMatchesFresh does on the pin corpus. Its seed corpus
// under testdata/fuzz holds, among others, copies of one structure that
// differ only in outputs, and two structures that differ only in whether
// a gate net is also a channel net of the group.
func FuzzShapeMemo(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeShapeCircuit(data)
		if err := c.Validate(); err != nil {
			t.Fatalf("generated an invalid circuit: %v", err)
		}
		memoMatchesFresh(t, "generated", c)
	})
}
