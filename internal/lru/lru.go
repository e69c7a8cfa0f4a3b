// Package lru is the one least-recently-used cache type of the module:
// the core profile memo, the server's dataset caches and its result
// cache are all a Cache (DESIGN.md §9.3). Values are shared, not
// copied, so callers must treat them as read-only.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a mutex-guarded LRU map holding at most limit entries.
// Recency is an intrusive doubly-linked list (front = oldest) with a
// key → element index, so Get and Add are O(1). It is safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	limit   int
	entries map[K]*list.Element
	order   *list.List // of *entry[K, V]; front = oldest, back = newest
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache bounded to limit entries (at least 1).
func New[K comparable, V any](limit int) *Cache[K, V] {
	if limit < 1 {
		limit = 1
	}
	return &Cache[K, V]{
		limit:   limit,
		entries: make(map[K]*list.Element, limit),
		order:   list.New(),
	}
}

// Get returns the value cached under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToBack(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add caches v under k unless k is already resident, evicting the least
// recently used entry when full, and returns the value now cached under
// k: v, or the resident value it lost to. Callers that computed v
// concurrently with another goroutine therefore converge on one shared
// copy. Either way k becomes the most recently used entry.
func (c *Cache[K, V]) Add(k K, v V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.order.MoveToBack(el)
		return el.Value.(*entry[K, V]).val
	}
	if c.order.Len() >= c.limit {
		oldest := c.order.Front()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[K, V]).key)
	}
	c.entries[k] = c.order.PushBack(&entry[K, V]{key: k, val: v})
	return v
}

// Len reports the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
