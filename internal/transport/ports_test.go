package transport

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestNoEphemeralTestPorts: a test that binds a fixed loopback port inside
// Linux's ephemeral range (32768–60999) can find it taken by any outgoing
// connection — another package's, under a parallel `go test ./...`. Tests
// listen on 127.0.0.1:0 and ask the Listener for its address; the few that
// need fixed ports take them below the range.
func TestNoEphemeralTestPorts(t *testing.T) {
	root := filepath.Join("..", "..") // the module root
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	literal := regexp.MustCompile(`127\.0\.0\.1:(\d+)`)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range literal.FindAllSubmatchIndex(src, -1) {
			port, _ := strconv.Atoi(string(src[m[2]:m[3]]))
			if port >= 32768 && port <= 60999 {
				line := bytes.Count(src[:m[0]], []byte("\n")) + 1
				t.Errorf("%s:%d: fixed port %d is in the ephemeral range; listen on 127.0.0.1:0", path, line, port)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
