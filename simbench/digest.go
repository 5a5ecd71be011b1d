package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"

	"baldur/internal/netsim"
	"baldur/internal/sim"
)

// digest hashes v's exact printed form (%+v prints floats in their shortest
// round-trip form, so equal digests mean equal values). Four bytes keep the
// reference file small; a changed output keeps its digest with odds 2^-32.
func digest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:4])
}

// references maps workload → seed → the digest of every operation of one
// pass, in pass order.
type references map[string]map[string][]string

//go:embed reference.json
var referenceJSON []byte

func loadReferences(data []byte) (references, error) {
	refs := references{}
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("reading reference digests: %w", err)
	}
	return refs, nil
}

// lookup returns the committed digests of workload at seed, or nil.
func (r references) lookup(workload string, seed uint64) []string {
	return r[workload][strconv.FormatUint(seed, 10)]
}

// record stores the digests of one pass and writes the file back.
func (r references) record(path, workload string, seed uint64, ops []op) error {
	ds := make([]string, len(ops))
	for i, o := range ops {
		if o.err != nil {
			return fmt.Errorf("not recording %s seed %d: %w", workload, seed, o.err)
		}
		ds[i] = o.digest
	}
	if r[workload] == nil {
		r[workload] = map[string][]string{}
	}
	r[workload][strconv.FormatUint(seed, 10)] = ds
	data, err := r.marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// marshal writes one line per (workload, seed), sorted, so the file diffs
// by seed.
func (r references) marshal() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, w := range sortedKeys(r) {
		fmt.Fprintf(&b, "  %q: {\n", w)
		seeds := sortedKeys(r[w])
		for j, seed := range seeds {
			ds, err := json.Marshal(r[w][seed])
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&b, "    %q: %s", seed, ds)
			if j < len(seeds)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("  }")
		if i < len(r)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.Bytes(), nil
}

// sortedKeys returns m's keys, numeric strings in numeric order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		return keys[i] < keys[j]
	})
	return keys
}

// verifier checks every operation of a run against the committed digests
// or, for a seed with none, against the run's first pass.
type verifier struct {
	want      []string
	committed bool
	attempted int
	failed    int
	firstErr  error
}

func newVerifier(refs references, workload string, seed uint64) *verifier {
	want := refs.lookup(workload, seed)
	return &verifier{want: want, committed: want != nil}
}

// check counts p's operations and its failures.
func (v *verifier) check(p pass) {
	if v.want == nil {
		v.want = make([]string, len(p.ops))
		for i, o := range p.ops {
			v.want[i] = o.digest
		}
	}
	for i, o := range p.ops {
		v.attempted++
		err := o.err
		if err == nil && (len(p.ops) != len(v.want) || o.digest != v.want[i]) {
			err = fmt.Errorf("%s: digest %s differs from the reference", o.id, o.digest)
		}
		if err != nil {
			v.failed++
			if v.firstErr == nil {
				v.firstErr = err
			}
		}
	}
}

// deliveryTally is an order-invariant summary of a run's deliveries: their
// count and a checksum of every (packet id, delivery time) pair.
type deliveryTally struct {
	Count uint64
	Sum   uint64
}

// tally accumulates deliveries per shard. On a sharded network a delivery
// callback runs on the destination node's shard, so each shard owns one
// counter, chosen by netsim.NodeShard(p.Dst), and the shards are folded
// only after the run.
type tally struct {
	shards    []tallyShard
	nodeShard []int32
}

type tallyShard struct {
	deliveryTally
	_ [48]byte // keeps neighbouring shards' counters off one cache line
}

func attachTally(net netsim.Network) *tally {
	t := &tally{
		shards:    make([]tallyShard, netsim.NumShards(net)),
		nodeShard: make([]int32, net.NumNodes()),
	}
	for i := range t.nodeShard {
		t.nodeShard[i] = int32(netsim.NodeShard(net, i))
	}
	net.OnDeliver(func(p *netsim.Packet, at sim.Time) {
		s := &t.shards[t.nodeShard[p.Dst]]
		s.Count++
		s.Sum += mix(p.ID ^ mix(uint64(at)))
	})
	return t
}

func (t *tally) total() deliveryTally {
	var d deliveryTally
	for i := range t.shards {
		d.Count += t.shards[i].Count
		d.Sum += t.shards[i].Sum
	}
	return d
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
