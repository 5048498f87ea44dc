module mlcr/bench

go 1.22

require mlcr v0.0.0

replace mlcr => ../
