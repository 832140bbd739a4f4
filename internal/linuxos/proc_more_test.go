package linuxos

import (
	"io"
	"testing"

	"repro/internal/sim"
)

func TestSeekWhenceVariants(t *testing.T) {
	eng, s := lx(t, false)
	s.Spawn("seek", func(pr *Proc) {
		fd, _ := pr.Open("/f", OWrite|OCreate)
		_, _ = pr.Write(fd, make([]byte, 100))
		if pos, _ := pr.Seek(fd, 10, io.SeekStart); pos != 10 {
			t.Errorf("SeekStart = %d", pos)
		}
		if pos, _ := pr.Seek(fd, 5, io.SeekCurrent); pos != 15 {
			t.Errorf("SeekCurrent = %d", pos)
		}
		if pos, _ := pr.Seek(fd, -20, io.SeekEnd); pos != 80 {
			t.Errorf("SeekEnd = %d", pos)
		}
		if pos, _ := pr.Seek(fd, -500, io.SeekStart); pos != 0 {
			t.Errorf("negative clamped = %d", pos)
		}
		if _, err := pr.Seek(fd, 0, 7); err == nil {
			t.Error("an invalid whence must fail")
		}
		_ = pr.Close(fd)
	})
	eng.Run()
}

func TestOpenDirForWritingFails(t *testing.T) {
	eng, s := lx(t, false)
	s.Spawn("dir", func(pr *Proc) {
		_ = pr.Mkdir("/d")
		for _, flags := range []OpenFlags{OWrite, ORead | OTrunc, OWrite | OCreate} {
			if _, err := pr.Open("/d", flags); err == nil {
				t.Errorf("open of a directory with flags %#x succeeded", flags)
			}
		}
	})
	eng.Run()
}

func TestAppendFlag(t *testing.T) {
	eng, s := lx(t, false)
	s.Spawn("append", func(pr *Proc) {
		fd, _ := pr.Open("/log", OWrite|OCreate)
		_, _ = pr.Write(fd, []byte("one"))
		_ = pr.Close(fd)
		fd, _ = pr.Open("/log", OWrite|OAppend)
		_, _ = pr.Write(fd, []byte("two"))
		_ = pr.Close(fd)
		st, err := pr.Stat("/log")
		if err != nil || st.Size != 6 {
			t.Errorf("stat = %+v, %v", st, err)
		}
	})
	eng.Run()
	node, _, _ := s.fs.lookup("/log")
	if string(node.data) != "onetwo" {
		t.Fatalf("content = %q", node.data)
	}
}

func TestExecCharges(t *testing.T) {
	eng, s := lx(t, false)
	var took sim.Time
	s.Spawn("exec", func(pr *Proc) {
		start := pr.P().Now()
		pr.Exec(64 << 10)
		took = pr.P().Now() - start
	})
	eng.Run()
	min := ProfileXtensa.SyscallCost + ProfileXtensa.ExecBaseCost
	if took < min {
		t.Fatalf("exec took %d, want >= %d", took, min)
	}
	if s.Stats.Xfer == 0 {
		t.Fatal("exec image copy not charged as transfer")
	}
}

func TestForkSharesDescriptors(t *testing.T) {
	eng, s := lx(t, false)
	var childRead []byte
	s.Spawn("parent", func(pr *Proc) {
		fd, _ := pr.Open("/shared", OWrite|OCreate)
		_, _ = pr.Write(fd, []byte("0123456789"))
		_ = pr.Close(fd)
		fd, _ = pr.Open("/shared", ORead)
		// Parent reads 4 bytes; the child inherits the offset.
		buf := make([]byte, 4)
		_, _ = pr.Read(fd, buf)
		child := pr.Fork("child", func(ch *Proc) {
			b := make([]byte, 6)
			n, _ := ch.Read(fd, b)
			childRead = b[:n]
		})
		pr.Wait(child)
		_ = pr.Close(fd)
	})
	eng.Run()
	if string(childRead) != "456789" {
		t.Fatalf("child read %q, want shared offset semantics", childRead)
	}
}

func TestBadFDErrors(t *testing.T) {
	eng, s := lx(t, false)
	s.Spawn("bad", func(pr *Proc) {
		if _, err := pr.Read(42, make([]byte, 4)); err == nil {
			t.Error("read on bad fd must fail")
		}
		if _, err := pr.Write(42, []byte("x")); err == nil {
			t.Error("write on bad fd must fail")
		}
		if err := pr.Close(42); err == nil {
			t.Error("close on bad fd must fail")
		}
		if _, err := pr.Open("/missing", ORead); err == nil {
			t.Error("open missing without O_CREAT must fail")
		}
	})
	eng.Run()
}

func TestReadDirChargesPerChunk(t *testing.T) {
	eng, s := lx(t, false)
	var small, large sim.Time
	s.Spawn("dirs", func(pr *Proc) {
		_ = pr.Mkdir("/d")
		for i := 0; i < 20; i++ {
			fd, _ := pr.Open("/d/f"+string(rune('a'+i)), OWrite|OCreate)
			_ = pr.Close(fd)
		}
		start := pr.P().Now()
		if _, err := pr.ReadDir("/d"); err != nil {
			t.Error(err)
		}
		large = pr.P().Now() - start
		_ = pr.Mkdir("/e")
		start = pr.P().Now()
		if _, err := pr.ReadDir("/e"); err != nil {
			t.Error(err)
		}
		small = pr.P().Now() - start
	})
	eng.Run()
	if large <= small {
		t.Fatalf("20-entry readdir (%d) should cost more than empty (%d)", large, small)
	}
}

func TestColdCacheAppliesToPipes(t *testing.T) {
	run := func(cold bool) sim.Time {
		eng := sim.NewEngine()
		s := New(eng, ProfileXtensa, cold)
		var took sim.Time
		s.Spawn("p", func(pr *Proc) {
			rfd, wfd := pr.Pipe()
			start := pr.P().Now()
			buf := make([]byte, 16<<10)
			_, _ = pr.Write(wfd, buf)
			_, _ = pr.Read(rfd, buf)
			took = pr.P().Now() - start
		})
		eng.Run()
		return took
	}
	if cold, warm := run(true), run(false); cold <= warm {
		t.Fatalf("cold pipe (%d) must cost more than warm (%d)", cold, warm)
	}
}

func TestLinuxLinkRename(t *testing.T) {
	eng, s := lx(t, false)
	s.Spawn("links", func(pr *Proc) {
		fd, _ := pr.Open("/orig", OWrite|OCreate)
		_, _ = pr.Write(fd, []byte("data"))
		_ = pr.Close(fd)
		if err := pr.Link("/orig", "/alias"); err != nil {
			t.Error(err)
		}
		if err := pr.Unlink("/orig"); err != nil {
			t.Error(err)
		}
		st, err := pr.Stat("/alias")
		if err != nil || st.Size != 4 {
			t.Errorf("alias stat = %+v, %v", st, err)
		}
		if err := pr.Rename("/alias", "/final"); err != nil {
			t.Error(err)
		}
		if _, err := pr.Stat("/alias"); err == nil {
			t.Error("old name resolves after rename")
		}
		if _, err := pr.Stat("/final"); err != nil {
			t.Error(err)
		}
		_ = pr.Mkdir("/d")
		if err := pr.Link("/d", "/d2"); err == nil {
			t.Error("directory link must fail")
		}
	})
	eng.Run()
	_ = s
}

func TestIsDirEntry(t *testing.T) {
	eng, s := lx(t, false)
	s.Spawn("d", func(pr *Proc) {
		_ = pr.Mkdir("/dir")
		fd, _ := pr.Open("/dir/file", OWrite|OCreate)
		_ = pr.Close(fd)
		if !pr.IsDirEntry("", "dir") {
			t.Error("dir not detected")
		}
		if pr.IsDirEntry("/dir", "file") {
			t.Error("file misdetected as dir")
		}
		if pr.IsDirEntry("/dir", "missing") {
			t.Error("missing entry misdetected")
		}
	})
	eng.Run()
	_ = s
}

// TestReadWriteOnlyFileFails: a read on a write-only fd fails after
// charging the syscall, as a write on a read-only fd does.
func TestReadWriteOnlyFileFails(t *testing.T) {
	eng, s := lx(t, false)
	s.Spawn("wronly", func(pr *Proc) {
		fd, _ := pr.Open("/f", OWrite|OCreate)
		_, _ = pr.Write(fd, []byte("data"))
		_, _ = pr.Seek(fd, 0, io.SeekStart)
		before := pr.sys.Stats.OS
		if n, err := pr.Read(fd, make([]byte, 4)); err == nil {
			t.Errorf("read of a write-only fd returned %d bytes", n)
		}
		if pr.sys.Stats.OS == before {
			t.Error("the refused read charged no syscall")
		}
		rw, _ := pr.Open("/f", ORead|OWrite)
		if n, err := pr.Read(rw, make([]byte, 4)); n != 4 || err != nil {
			t.Errorf("read of a read-write fd: %d, %v", n, err)
		}
	})
	eng.Run()
}
