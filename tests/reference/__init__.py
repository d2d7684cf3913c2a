"""Reference implementations the product code is pinned against."""
