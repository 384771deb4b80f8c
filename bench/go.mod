module tinymlops/bench

go 1.22

require tinymlops v0.0.0

replace tinymlops => ../
