//go:build !linux

package main

import "time"

func sleepFor(d time.Duration) { time.Sleep(d) }
