package main

import (
	"math/rand"

	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/storage"
)

// tracedStore wraps the blob store the program was given, so every Put
// and Get the program makes shows up as a span under the client's current
// span. afterPut, when set, runs after each Put returns (the seller uses
// it to move the entry label from π_e to π_t inside Duplicate, whose
// Put sits between the two proofs).
type tracedStore struct {
	inner    storage.BlobStore
	cur      *Cursor
	afterPut func()
}

func (s *tracedStore) Put(owner string, data []byte) (storage.URI, error) {
	s.cur.Push("storage.put")
	uri, err := s.inner.Put(owner, data)
	s.cur.Pop()
	if s.afterPut != nil {
		s.afterPut()
	}
	return uri, err
}

func (s *tracedStore) Get(uri storage.URI) ([]byte, error) {
	s.cur.Push("storage.get")
	data, err := s.inner.Get(uri)
	s.cur.Pop()
	return data, err
}

func (s *tracedStore) Remove(owner string, uri storage.URI) error {
	return s.inner.Remove(owner, uri)
}

// randomElement draws a field element from the seeded input stream.
func randomElement(rng *rand.Rand) fr.Element {
	var b [32]byte
	rng.Read(b[:])
	return fr.FromBytes(b[:])
}

// randomDataset draws an n-entry dataset from the seeded input stream.
func randomDataset(rng *rand.Rand, n int) core.Dataset {
	d := make(core.Dataset, n)
	for i := range d {
		d[i] = randomElement(rng)
	}
	return d
}
