package serve

import (
	"reflect"
	"testing"
)

type entry bool // terminal?

func (e entry) isTerminal() bool { return bool(e) }

// TestRegisterPrunesOldestTerminal pins the bounded registry shared by
// jobs and searches: beyond the cap the oldest terminal entries go,
// live ones stay even if that leaves the registry over the cap.
func TestRegisterPrunesOldestTerminal(t *testing.T) {
	m := map[string]entry{}
	var order []string
	for _, e := range []struct {
		id       string
		terminal entry
	}{{"a", true}, {"b", false}, {"c", true}, {"d", true}} {
		order = register(m, order, e.id, e.terminal, 2)
	}
	// Adding c evicted a (the oldest terminal); adding d evicted c,
	// because b is live.
	if want := []string{"b", "d"}; !reflect.DeepEqual(order, want) || len(m) != 2 {
		t.Fatalf("order %v, %d entries; want %v", order, len(m), want)
	}
	order = register(m, order, "e", false, 2)
	order = register(m, order, "f", false, 2)
	if want := []string{"b", "e", "f"}; !reflect.DeepEqual(order, want) || len(m) != 3 {
		t.Fatalf("order %v, %d entries; want %v (live entries are never evicted)", order, len(m), want)
	}
}
