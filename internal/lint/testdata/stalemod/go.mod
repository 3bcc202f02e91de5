module stalemod

go 1.22
