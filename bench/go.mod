module spequlos/bench

go 1.24

require spequlos v0.0.0

replace spequlos => ../
