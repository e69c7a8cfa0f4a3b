package lru

import (
	"fmt"
	"sync"
	"testing"
)

// The LRU contract: Get refreshes recency, Add evicts the least recently
// used entry, and a re-Add of a resident key keeps the resident value
// but still refreshes its recency.
func TestCacheLRU(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get a = %v, %v", v, ok)
	}
	c.Add("c", 3) // "b" is now the LRU entry and must be evicted
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	for _, kv := range []struct {
		k    string
		want int
	}{{"a", 1}, {"c", 3}} {
		if v, ok := c.Get(kv.k); !ok || v != kv.want {
			t.Fatalf("Get %s = %v, %v; want %d", kv.k, v, ok, kv.want)
		}
	}
	if got := c.Add("a", 10); got != 1 { // "c" becomes the LRU entry
		t.Fatalf("re-Add a returned %v, want the resident 1", got)
	}
	c.Add("d", 4)
	if _, ok := c.Get("c"); ok {
		t.Fatal("c survived eviction although the re-Add refreshed a")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get a = %v, %v after re-Add; want the resident 1", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCacheLimitClamp(t *testing.T) {
	c := New[string, int](0) // clamps to 1
	c.Add("a", 1)
	c.Add("b", 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived in a 1-entry cache after b was inserted")
	}
}

// Concurrent Gets and Adds must not race (run under -race in CI) and the
// cache must stay within its limit.
func TestCacheConcurrent(t *testing.T) {
	c := New[string, int](8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w*7+i)%16)
				if i%3 == 0 {
					c.Add(key, i)
				} else {
					c.Get(key)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("cache grew past its limit: %d", c.Len())
	}
}
