package gen

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"hoyan/internal/config"
	"hoyan/internal/topo"
)

// WriteDir serializes a network to a directory: `topology.txt` plus one
// `<router>.cfg` per device, the on-disk snapshot format the hoyan CLI
// loads.
func (w *WAN) WriteDir(dir string) error {
	return WriteDir(dir, w.Net, w.Snap)
}

// WriteDir serializes any topology + snapshot pair.
func WriteDir(dir string, net *topo.Network, snap config.Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	for _, n := range net.Nodes() {
		fmt.Fprintf(&b, "node %s as=%d vendor=%s region=%s group=%s role=%s\n",
			n.Name, n.AS, n.Vendor, n.Region, n.Group, n.Role)
	}
	for _, l := range net.Links() {
		fmt.Fprintf(&b, "link %s %s %d\n", net.Node(l.A).Name, net.Node(l.B).Name, l.Weight)
	}
	if err := os.WriteFile(filepath.Join(dir, "topology.txt"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		text := config.Write(snap[name])
		if err := os.WriteFile(filepath.Join(dir, name+".cfg"), []byte(text), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// LoadDir parses a directory written by WriteDir back into a topology and
// snapshot.
func LoadDir(dir string) (*topo.Network, config.Snapshot, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "topology.txt"))
	if err != nil {
		return nil, nil, err
	}
	net := topo.NewNetwork()
	for lineNo, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "node":
			if len(f) < 2 {
				return nil, nil, fmt.Errorf("gen: topology line %d: node needs a name", lineNo+1)
			}
			n := topo.Node{Name: f[1]}
			for _, kv := range f[2:] {
				i := strings.IndexByte(kv, '=')
				if i < 0 {
					return nil, nil, fmt.Errorf("gen: topology line %d: bad attribute %q", lineNo+1, kv)
				}
				key, val := kv[:i], kv[i+1:]
				switch key {
				case "as":
					as, err := strconv.ParseUint(val, 10, 32)
					if err != nil {
						return nil, nil, fmt.Errorf("gen: topology line %d: bad as %q", lineNo+1, val)
					}
					n.AS = uint32(as)
				case "vendor":
					n.Vendor = val
				case "region":
					n.Region = val
				case "group":
					n.Group = val
				case "role":
					n.Role = topo.Role(val)
				default:
					return nil, nil, fmt.Errorf("gen: topology line %d: unknown attribute %q", lineNo+1, key)
				}
			}
			if _, err := net.AddNode(n); err != nil {
				return nil, nil, err
			}
		case "link":
			if len(f) != 4 {
				return nil, nil, fmt.Errorf("gen: topology line %d: link wants A B WEIGHT", lineNo+1)
			}
			a, ok1 := net.NodeByName(f[1])
			b, ok2 := net.NodeByName(f[2])
			if !ok1 || !ok2 {
				return nil, nil, fmt.Errorf("gen: topology line %d: unknown endpoint", lineNo+1)
			}
			wt, err := strconv.ParseUint(f[3], 10, 32)
			if err != nil {
				return nil, nil, fmt.Errorf("gen: topology line %d: bad weight %q", lineNo+1, f[3])
			}
			if _, err := net.AddLink(a.ID, b.ID, uint32(wt)); err != nil {
				return nil, nil, err
			}
		default:
			return nil, nil, fmt.Errorf("gen: topology line %d: unknown directive %q", lineNo+1, f[0])
		}
	}
	snap := config.Snapshot{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".cfg") {
			continue
		}
		text, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, nil, err
		}
		d, err := config.Parse(string(text))
		if err != nil {
			return nil, nil, fmt.Errorf("gen: %s: %w", e.Name(), err)
		}
		name := strings.TrimSuffix(e.Name(), ".cfg")
		if d.Hostname == "" {
			d.Hostname = name
		}
		snap[name] = d
	}
	for _, n := range net.Nodes() {
		if _, ok := snap[n.Name]; !ok {
			return nil, nil, fmt.Errorf("gen: node %s has no %s.cfg", n.Name, n.Name)
		}
	}
	return net, snap, nil
}
