"""PostgreSQL-mini: miniature postgres.

Paper traits reproduced:

* the exact Figure 4(a) mapping convention: ``ConfigureNamesInt``
  tables with name / variable address / default / min / max;
* GUC-style uniform checking that *names the parameter* on rejection -
  PostgreSQL's mostly good reactions (only 3 of its 49 exposed
  vulnerabilities were confirmed; crash and silent-violation columns
  are nearly empty in Table 5a);
* Figure 3(e): ``commit_siblings`` takes effect only when ``fsync``
  is on - plus further control dependencies whose violations are
  silently ignored (PostgreSQL's dominant column, 35 silent
  ignorances);
* one crash: an absurd ``shared_buffers`` makes the arena allocation
  fail and the zeroing pass dereferences NULL.
"""

from __future__ import annotations

from repro.core.accuracy import (
    truth_basic,
    truth_ctrl_dep,
    truth_range,
    truth_semantic,
    truth_value_rel,
)
from repro.inject.ar import KeyValueDialect
from repro.systems.base import (
    SAME_AS_NAME,
    FunctionalTest,
    OsDir,
    ParamSpec,
    SubjectSystem,
)
from repro.systems.registry import register

POSTGRES_MAIN = r"""
// postgres-mini
int pg_port = 5432;
int max_connections = 100;
int shared_buffers = 16384;
int work_mem = 4096;
int maintenance_work_mem = 65536;
int DeadlockTimeout = 1000;
int enableFsync = 1;
int CommitSiblings = 5;
int commit_delay = 0;
int checkpoint_timeout = 300;
int checkpoint_warning = 30;
int wal_keep_segments = 0;
int min_wal_size = 80;
int max_wal_size = 1024;
int archive_mode = 0;
int logging_collector = 0;
int autovacuum = 1;
int autovacuum_naptime = 60;
char *data_directory = "/data/pg";
char *unix_socket_directories = "/var/run";
char *archive_command = "";
char *log_directory = "/var/log/pg";

char *shared_arena;

struct config_int { char *name; int *var; int def; int min; int max; };
struct config_str { char *name; char **var; };

struct config_int ConfigureNamesInt[] = {
    { "port", &pg_port, 5432, 1, 65535 },
    { "max_connections", &max_connections, 100, 1, 262143 },
    { "shared_buffers", &shared_buffers, 16384, 16, 1073741823 },
    { "work_mem", &work_mem, 4096, 64, 2147483647 },
    { "maintenance_work_mem", &maintenance_work_mem, 65536, 1024, 2147483647 },
    { "deadlock_timeout", &DeadlockTimeout, 1000, 1, 2147483647 },
    { "fsync", &enableFsync, 1, 0, 1 },
    { "commit_siblings", &CommitSiblings, 5, 0, 1000 },
    { "commit_delay", &commit_delay, 0, 0, 100000 },
    { "checkpoint_timeout", &checkpoint_timeout, 300, 30, 86400 },
    { "checkpoint_warning", &checkpoint_warning, 30, 0, 2147483647 },
    { "wal_keep_segments", &wal_keep_segments, 0, 0, 10000 },
    { "min_wal_size", &min_wal_size, 80, 32, 2147483647 },
    { "max_wal_size", &max_wal_size, 1024, 2, 2147483647 },
    { "archive_mode", &archive_mode, 0, 0, 1 },
    { "logging_collector", &logging_collector, 0, 0, 1 },
    { "autovacuum", &autovacuum, 1, 0, 1 },
    { "autovacuum_naptime", &autovacuum_naptime, 60, 1, 2147483 },
};

struct config_str ConfigureNamesString[] = {
    { "data_directory", &data_directory },
    { "unix_socket_directories", &unix_socket_directories },
    { "archive_command", &archive_command },
    { "log_directory", &log_directory },
};

int set_config_option(char *key, char *value) {
    int i;
    for (i = 0; i < 18; i++) {
        if (strcasecmp(key, ConfigureNamesInt[i].name) == 0) {
            char *end;
            long v = strtol(value, &end, 10);
            if (strlen(end) > 0) {
                fprintf(stderr, "FATAL: parameter \"%s\" requires a "
                        "numeric value\n", ConfigureNamesInt[i].name);
                exit(1);
            }
            if (v < ConfigureNamesInt[i].min) {
                fprintf(stderr, "FATAL: %d is outside the valid range for "
                        "parameter \"%s\" (%d .. %d)\n", (int)v,
                        ConfigureNamesInt[i].name, ConfigureNamesInt[i].min,
                        ConfigureNamesInt[i].max);
                exit(1);
            }
            if (v > ConfigureNamesInt[i].max) {
                fprintf(stderr, "FATAL: %d is outside the valid range for "
                        "parameter \"%s\" (%d .. %d)\n", (int)v,
                        ConfigureNamesInt[i].name, ConfigureNamesInt[i].min,
                        ConfigureNamesInt[i].max);
                exit(1);
            }
            *ConfigureNamesInt[i].var = (int)v;
            return 0;
        }
    }
    for (i = 0; i < 4; i++) {
        if (strcasecmp(key, ConfigureNamesString[i].name) == 0) {
            *ConfigureNamesString[i].var = value;
            return 0;
        }
    }
    fprintf(stderr, "FATAL: unrecognized configuration parameter \"%s\"\n",
            key);
    exit(1);
    return 0;
}

int read_config(char *path) {
    void *fp = fopen(path, "r");
    if (fp == NULL) {
        fprintf(stderr, "postgres: could not access %s\n", path);
        exit(1);
    }
    char *line = fgets(fp);
    while (line != NULL) {
        char *trimmed = str_trim(line);
        if (strlen(trimmed) > 0 && trimmed[0] != '#') {
            char *eq = strchr(trimmed, '=');
            if (eq != NULL) {
                int pos = strlen(trimmed) - strlen(eq);
                char *key = str_trim(str_substr(trimmed, 0, pos));
                char *value = str_trim(eq + 1);
                set_config_option(key, value);
            }
        }
        line = fgets(fp);
    }
    fclose(fp);
    return 0;
}

int init_shared_memory() {
    // Arena sized in 8 KB pages; absurd sizes fail allocation and the
    // zeroing pass crashes (the one PostgreSQL crash in Table 5a).
    shared_arena = malloc(shared_buffers * 8192);
    memset(shared_arena, 0, 64);
    return 0;
}

int check_dirs() {
    if (!is_directory(data_directory)) {
        fprintf(stderr, "postgres: could not access the server "
                "configuration file\n");  // misleading: wrong subject
        exit(1);
    }
    if (!is_directory(unix_socket_directories)) {
        return 1;  // silent early termination
    }
    if (logging_collector != 0) {
        if (!is_directory(log_directory)) {
            return 1;  // silent, and only with the collector on
        }
    }
    return 0;
}

int check_wal_sizes() {
    if (max_wal_size < min_wal_size) {
        fprintf(stderr, "FATAL: \"max_wal_size\" must be at least twice "
                "\"min_wal_size\"\n");
        exit(1);
    }
    return 0;
}

int init_network() {
    int fd = socket(2, 1, 0);
    if (bind(fd, pg_port) != 0) {
        fprintf(stderr, "LOG: could not bind IPv4 address: Address "
                "already in use\n");
        fprintf(stderr, "FATAL: could not create any TCP/IP sockets\n");
        exit(1);
    }
    listen(fd, 64);
    return 0;
}

int checkpointer_tick() {
    int ct = checkpoint_timeout;
    if (ct > 2) { ct = 2; }
    sleep(ct);
    return 0;
}

int MinimumActiveBackends(int min) {
    if (min > 0) {
        return 1;
    }
    return 0;
}

int RecordTransactionCommit() {
    if (enableFsync != 0) {
        // Figure 3(e): commit_siblings only consulted under fsync.
        if (MinimumActiveBackends(CommitSiblings)) {
            if (commit_delay > 0) {
                usleep(commit_delay);
            }
            return 1;
        }
    }
    return 0;
}

int run_archiver() {
    if (archive_mode != 0) {
        if (strlen(archive_command) == 0) {
            return 0;  // silently does nothing
        }
        send_response(sprintf("archived via %s", archive_command));
    }
    return 0;
}

int serve() {
    char *req = recv_request();
    while (req != NULL) {
        if (strncmp(req, "SELECT", 6) == 0) {
            send_response("1 row");
        } else if (strcmp(req, "COMMIT") == 0) {
            RecordTransactionCommit();
            send_response("COMMIT");
        } else if (strcmp(req, "ARCHIVE") == 0) {
            run_archiver();
            send_response("archive pass done");
        } else if (strcmp(req, "PING") == 0) {
            send_response("PONG");
        } else {
            send_response("ERROR: syntax error");
        }
        req = recv_request();
    }
    return 0;
}

int main(int argc, char **argv) {
    if (argc < 2) {
        fprintf(stderr, "usage: postgres <config>\n");
        return 2;
    }
    read_config(argv[1]);
    check_wal_sizes();
    init_shared_memory();
    if (check_dirs() != 0) {
        return 1;
    }
    init_network();
    checkpointer_tick();
    serve();
    return 0;
}
"""

ANNOTATIONS = """
{ @STRUCT = ConfigureNamesInt
  @PAR = [config_int, 1]
  @VAR = [config_int, 2]
  @MIN = [config_int, 4]
  @MAX = [config_int, 5] }
{ @STRUCT = ConfigureNamesString
  @PAR = [config_str, 1]
  @VAR = [config_str, 2] }
"""

DEFAULT_CONFIG = """\
# postgres-mini configuration
port=5432
max_connections=100
shared_buffers=16384
work_mem=4096
maintenance_work_mem=65536
deadlock_timeout=1000
fsync=1
commit_siblings=5
commit_delay=0
checkpoint_timeout=300
checkpoint_warning=30
wal_keep_segments=0
min_wal_size=80
max_wal_size=1024
archive_mode=0
logging_collector=0
autovacuum=1
autovacuum_naptime=60
data_directory=/data/pg
unix_socket_directories=/var/run
archive_command=
log_directory=/var/log/pg
"""

MANUAL = {
    "port": "port: 1..65535.",
    "max_connections": "max_connections: 1..262143.",
    "shared_buffers": "shared_buffers <8KB pages>: 16..1073741823.",
    "work_mem": "work_mem <KB>: 64..2147483647.",
    "maintenance_work_mem": "maintenance_work_mem <KB>: 1024..2147483647.",
    "deadlock_timeout": "deadlock_timeout <ms>: 1..2147483647.",
    "fsync": "fsync 0|1: force WAL to disk.",
    "commit_delay": "commit_delay <microseconds>: 0..100000.",
    "checkpoint_timeout": "checkpoint_timeout <s>: 30..86400.",
    "min_wal_size": "min_wal_size <MB>: 32..2147483647.",
    "max_wal_size": "max_wal_size <MB>: 2..2147483647.",
    "archive_mode": "archive_mode 0|1. See also archive_command.",
    "archive_command": "archive_command <cmd>: used when archive_mode is on.",
    "logging_collector": "logging_collector 0|1.",
    "log_directory": "log_directory <path>: used by the collector.",
    "autovacuum": "autovacuum 0|1.",
    "autovacuum_naptime": "autovacuum_naptime <s>: 1..2147483.",
    "data_directory": "data_directory <path>.",
    "unix_socket_directories": "unix_socket_directories <path>.",
    # undocumented: commit_siblings (and its fsync dependency),
    # checkpoint_warning, wal_keep_segments.
}


def _tests() -> list[FunctionalTest]:
    return [
        FunctionalTest(
            name="ping",
            requests=["PING"],
            oracle=lambda r: r == ["PONG"],
            duration=0.3,
        ),
        FunctionalTest(
            name="select",
            requests=["SELECT 1"],
            oracle=lambda r: r == ["1 row"],
            duration=1.0,
        ),
        FunctionalTest(
            name="commit",
            requests=["COMMIT"],
            oracle=lambda r: r == ["COMMIT"],
            duration=1.5,
        ),
        FunctionalTest(
            name="archive",
            requests=["ARCHIVE"],
            oracle=lambda r: len(r) >= 1 and r[-1] == "archive pass done",
            duration=2.0,
        ),
    ]


# (config name, effective variable, extra truth).  Every
# ConfigureNamesInt row carries the table's min/max columns, so every
# int parameter gets a range truth; the renames follow the real server
# (`port` lands in `pg_port`, `fsync` in `enableFsync`).
_INTS = [
    ("port", "pg_port", (truth_semantic("port", "PORT"),)),
    ("max_connections", SAME_AS_NAME, ()),
    ("shared_buffers", SAME_AS_NAME,
     (truth_semantic("shared_buffers", "SIZE"),)),
    ("work_mem", SAME_AS_NAME, ()),
    ("maintenance_work_mem", SAME_AS_NAME, ()),
    ("deadlock_timeout", "DeadlockTimeout", ()),
    ("fsync", "enableFsync", ()),
    ("commit_siblings", "CommitSiblings", ()),
    ("commit_delay", SAME_AS_NAME,
     (truth_semantic("commit_delay", "TIME"),)),
    ("checkpoint_timeout", SAME_AS_NAME,
     (truth_semantic("checkpoint_timeout", "TIME"),)),
    ("checkpoint_warning", SAME_AS_NAME, ()),
    ("wal_keep_segments", SAME_AS_NAME, ()),
    ("min_wal_size", SAME_AS_NAME, ()),
    ("max_wal_size", SAME_AS_NAME, ()),
    ("archive_mode", SAME_AS_NAME, ()),
    ("logging_collector", SAME_AS_NAME, ()),
    ("autovacuum", SAME_AS_NAME, ()),
    ("autovacuum_naptime", SAME_AS_NAME, ()),
]

# ConfigureNamesString rows: (config name, extra truth).
_STRS = [
    ("data_directory", (truth_semantic("data_directory", "DIRECTORY"),)),
    ("unix_socket_directories",
     (truth_semantic("unix_socket_directories", "DIRECTORY"),)),
    ("archive_command", ()),
    ("log_directory", (truth_semantic("log_directory", "DIRECTORY"),)),
]


@register("postgresql")
def build() -> SubjectSystem:
    return SubjectSystem(
        name="postgresql",
        display_name="PostgreSQL",
        description="Miniature postgres with the paper's PostgreSQL traits",
        sources={"postgres.c": POSTGRES_MAIN},
        annotations=ANNOTATIONS,
        dialect=KeyValueDialect("="),
        config_path="/etc/postgresql.conf",
        default_config=DEFAULT_CONFIG,
        params=[
            ParamSpec(
                name,
                decode="int",
                var=var,
                manual=MANUAL.get(name),
                truth=(truth_basic(name, "int"), truth_range(name)) + extra,
            )
            for name, var, extra in _INTS
        ]
        + [
            ParamSpec(
                name,
                decode="string",
                manual=MANUAL.get(name),
                truth=(truth_basic(name, "string"),) + extra,
            )
            for name, extra in _STRS
        ],
        tests=_tests(),
        extra_truth=[
            truth_ctrl_dep("commit_siblings", "fsync"),
            truth_ctrl_dep("commit_delay", "fsync"),
            truth_ctrl_dep("log_directory", "logging_collector"),
            truth_ctrl_dep("archive_command", "archive_mode"),
            truth_value_rel("min_wal_size", "max_wal_size"),
        ],
        os_dirs=[OsDir("/data/pg"), OsDir("/var/log/pg")],
    )
