module github.com/synergy-ft/synergy/benchmark

go 1.22

require github.com/synergy-ft/synergy v0.0.0

replace github.com/synergy-ft/synergy => ../
