package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// child is a server or coordinator process under test. Its output goes to
// a log file in the output directory.
type child struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

// startChild runs bin on an ephemeral port and waits until it has written
// its bound address to a port file.
func startChild(bin, name, outDir string, args ...string) (*child, error) {
	portfile := filepath.Join(outDir, name+".port")
	if err := os.Remove(portfile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	log, err := os.Create(filepath.Join(outDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-portfile", portfile}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{cmd: cmd, log: log, done: make(chan struct{})}
	//unizklint:allow goroutinelife(exits when the child does; stop waits on done)
	go func() {
		defer close(c.done)
		_ = cmd.Wait() // a stopped child's exit status is not used
	}()

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(portfile); err == nil && strings.HasSuffix(string(data), "\n") {
			c.url = "http://" + strings.TrimSpace(string(data))
			return c, nil
		}
		select {
		case <-c.done:
			log.Close()
			return nil, fmt.Errorf("%s exited before listening; see %s", name, log.Name())
		case <-time.After(2 * time.Millisecond):
		}
	}
	c.stop()
	return nil, fmt.Errorf("%s did not listen within 15s", name)
}

func (c *child) pid() string { return fmt.Sprint(c.cmd.Process.Pid) }

// stop asks the child to drain with SIGTERM, kills it if it has not
// exited after 10 s, and returns once it has ended.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill() // fails only if it already exited
		<-c.done
	}
	c.log.Close()
}
