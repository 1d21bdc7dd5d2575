module xmlproj/benchmark

go 1.22

require xmlproj v0.0.0

replace xmlproj => ../
