"""Golden numbers of the paper batch and the script that regenerates them."""
