if __name__ == "__main__":
    import gc
    gc.disable()  # before the CLI's modules load: a run makes no reference cycle (cli.entry)
    from .cli import entry
    entry()
