package session

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/segment"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// TestSharedBuiltinDictionaryReadOnly pins the read-only contract of the
// shared built-in dictionary: concurrent known-mode sessions on one
// Manager, a batch Reconstruct, and a detach → ResumeSession migration
// all run over the same images (run it under -race), and afterwards
// every shared image hashes as it did before.
func TestSharedBuiltinDictionaryReadOnly(t *testing.T) {
	const w, h, sessions = 64, 48, 3
	const n = core.DefaultIdentifyAfter + 4
	opts := func() core.Options {
		o := core.DefaultOptions()
		o.KnownImages = compositor.BuiltinImages(w, h)
		o.Segmenter = segment.OracleSegmenter{}
		return o
	}
	shared := compositor.BuiltinImages(w, h)
	digest := func() map[string][32]byte {
		d := map[string][32]byte{}
		for name, img := range shared {
			d[name] = sha256.Sum256(imagex.AppendPix(nil, img.Pix))
		}
		return d
	}
	if opts().KnownImages["beach"] != shared["beach"] {
		t.Fatal("BuiltinImages did not share its images; the test would check nothing")
	}
	before := digest()

	// Each caller gets its own frames: the beach VB with a leaked
	// background patch, and empty silhouettes.
	call := func() ([]*imagex.Image, []*imagex.Mask) {
		frames := make([]*imagex.Image, n)
		sils := make([]*imagex.Mask, n)
		for i := range frames {
			frames[i] = shared["beach"].Clone()
			frames[i].FillRect(8, 8, 24, 20, imagex.RGB{R: 240, G: 240, B: 60})
			sils[i] = imagex.NewMask(w, h)
		}
		return frames, sils
	}

	m := NewManager(Config{})
	defer m.Close()
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		s, err := m.Open(fmt.Sprintf("call-%d", i), w, h, opts())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			frames, sils := call()
			for j := range frames {
				if err := s.Feed(frames[j], sils[j]); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	var batch *core.Reconstruction
	wg.Add(1)
	go func() {
		defer wg.Done()
		frames, sils := call()
		video := vidstream.New(30)
		for _, f := range frames {
			if err := video.Append(f); err != nil {
				t.Error(err)
				return
			}
		}
		var err error
		if batch, err = core.Reconstruct(video, sils, opts()); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if batch.VBName != "beach" {
		t.Fatalf("batch identified %q, want beach", batch.VBName)
	}

	// Migrate call-0 onto a resumed incarnation and keep feeding it
	// while the other sessions finalize.
	src, _ := m.Get("call-0")
	data, err := src.Detach()
	if err != nil {
		t.Fatal(err)
	}
	moved, err := m.ResumeSession("call-0-moved", data, opts())
	if err != nil {
		t.Fatal(err)
	}
	live := []*Session{moved}
	for i := 1; i < sessions; i++ {
		s, _ := m.Get(fmt.Sprintf("call-%d", i))
		live = append(live, s)
	}
	for _, s := range live {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			frames, sils := call()
			for j := 0; j < 3; j++ {
				if err := s.Feed(frames[j], sils[j]); err != nil {
					t.Error(err)
					return
				}
			}
			if err := s.Finalize(); err != nil {
				t.Error(err)
			}
		}(s)
	}
	wg.Wait()
	for _, s := range live {
		if st := s.Stats(); !st.Identified || st.VBName != "beach" {
			t.Errorf("%s pinned %q (identified %v), want beach", s.ID(), st.VBName, st.Identified)
		}
	}

	after := digest()
	for name, d := range before {
		if after[name] != d {
			t.Errorf("shared built-in %q changed during the run", name)
		}
	}
}
