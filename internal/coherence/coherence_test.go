package coherence

import (
	"testing"
	"testing/quick"
)

func TestDirectoryBasics(t *testing.T) {
	var d DirEntry
	if d.Owner() != -1 || d.Sharers() != 0 {
		t.Fatal("zero directory entry not empty")
	}
	d.AddSharer(2)
	d.AddSharer(5)
	if d.Sharers() != (1<<2)|(1<<5) {
		t.Errorf("sharers = %b", d.Sharers())
	}
	d.SetOwner(15)
	if d.Owner() != 15 || d.Sharers() != 1<<15 {
		t.Error("SetOwner must clear old sharers and install owner")
	}
	d.Downgrade()
	if d.Owner() != -1 || d.Sharers() != 1<<15 {
		t.Error("Downgrade must keep the copy, drop ownership")
	}
	d.RemoveSharer(15)
	if d.Sharers() != 0 {
		t.Error("RemoveSharer failed")
	}
	d.SetOwner(0)
	d.AddSharer(3)
	d.Clear()
	if d != 0 {
		t.Errorf("Clear left %#x", uint32(d))
	}
}

func TestDirectoryRemoveOwnerClearsOwner(t *testing.T) {
	var d DirEntry
	d.SetOwner(3)
	d.RemoveSharer(3)
	if d.Owner() != -1 {
		t.Error("evicting the owner must clear ownership")
	}
	// Evicting a non-owner keeps the owner.
	d.SetOwner(4)
	d.AddSharer(1)
	d.RemoveSharer(1)
	if d.Owner() != 4 || d.Sharers() != 1<<4 {
		t.Errorf("after non-owner eviction: owner=%d sharers=%b", d.Owner(), d.Sharers())
	}
}

func TestPresenceBasics(t *testing.T) {
	var p PresenceEntry
	p.Add(0)
	p.Add(2)
	if !p.HasPeer(0) || !p.HasPeer(3) {
		t.Error("HasPeer wrong")
	}
	if solo := PresenceEntry(1 << 2); solo.HasPeer(2) {
		t.Error("HasPeer must exclude self")
	}
	p.SetInL2(true)
	p.SetOwner(7)
	if p.Owner() != 7 || p.Holders() != 1|1<<2|1<<7 || !p.InL2() {
		t.Errorf("after SetOwner: owner=%d holders=%b inL2=%v", p.Owner(), p.Holders(), p.InL2())
	}
	p.SetOwner(2)
	if p.Owner() != 2 {
		t.Error("owner not replaced")
	}
	p.Remove(2)
	if p.Owner() != -1 || p.Holders() != 1|1<<7 || !p.InL2() {
		t.Errorf("after Remove: owner=%d holders=%b inL2=%v", p.Owner(), p.Holders(), p.InL2())
	}
	p.SetInL2(false)
	if p.InL2() || p.Holders() != 1|1<<7 {
		t.Error("SetInL2(false) must drop only the L2 bit")
	}
	p.SetInL2(true)
	p.Clear()
	if p != 0 {
		t.Errorf("Clear left %#x", uint16(p))
	}
}

// Property: the directory's owner, when set, is always within the sharer
// bitmap, under arbitrary operation sequences.
func TestQuickDirectoryOwnerIsSharer(t *testing.T) {
	f := func(ops []uint16) bool {
		var d [8]DirEntry
		for _, op := range ops {
			b := op % 8
			n := int(op/8) % MaxNodes
			switch op % 5 {
			case 0:
				d[b].AddSharer(n)
			case 1:
				d[b].SetOwner(n)
			case 2:
				d[b].RemoveSharer(n)
			case 3:
				d[b].Downgrade()
			case 4:
				d[b].Clear()
			}
			for _, e := range d {
				if o := e.Owner(); o >= 0 && e.Sharers()&(1<<uint(o)) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the presence owner, when set, is always among the holders, and
// no L1 operation disturbs the in-L2 bit.
func TestQuickPresenceOwnerIsHolder(t *testing.T) {
	f := func(ops []uint8) bool {
		var p [4]PresenceEntry
		var inL2 [4]bool
		for _, op := range ops {
			b := op % 4
			n := int(op/4) % MaxCores
			switch op % 5 {
			case 0:
				p[b].Add(n)
			case 1:
				p[b].SetOwner(n)
			case 2:
				p[b].Remove(n)
			case 3:
				p[b].Clear()
				inL2[b] = false
			case 4:
				inL2[b] = !inL2[b]
				p[b].SetInL2(inL2[b])
			}
			for blk, e := range p {
				if o := e.Owner(); o >= 0 && e.Holders()&(1<<uint(o)) == 0 {
					return false
				}
				if e.InL2() != inL2[blk] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
