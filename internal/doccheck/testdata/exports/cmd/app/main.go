package main

import "fixture/internal/dead"

func main() { dead.Live().Called() }
