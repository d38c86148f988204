"""MySQL-mini: miniature mysqld.

Paper traits reproduced:

* structure-based mapping through sys_var tables that carry min/max
  (§5.2: the global table enforces uniform validity checking - but the
  clamping is *silent*, giving MySQL's 71 silent violations);
* Figure 3(b)/5(b): ``ft_stopword_file`` reaches open() through the
  ``my_open`` wrapper; a directory path crashes the server;
* Figure 3(f)/5(f): ``ft_min_word_len < ft_max_word_len`` - violating
  it breaks full-text search with no message;
* Figure 7(a): ``performance_schema_events_waits_history_size = 0``
  crashes with SIGFPE (ring-buffer modulo);
* Figure 6(a): ``innodb_file_format_check`` values are case-sensitive
  while every other string option is case-insensitive (Table 6's
  single sensitive entry);
* safe strtol parsing only (Table 8: 0 unsafe transformations).
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

MYSQLD_MAIN = r"""
// mysqld-mini
int mysql_port = 3306;
int max_connections = 151;
int key_buffer_size = 8388608;
int sort_buffer_size = 262144;
int max_allowed_packet = 4194304;
int wait_timeout = 28800;
int interactive_timeout = 28800;
int net_retry_count = 10;
int table_open_cache = 400;
int ft_min_word_len = 4;
int ft_max_word_len = 84;
int waits_history_size = 10;
int innodb_thread_sleep_delay = 10000;
int innodb_thread_concurrency = 0;
int thread_cache_size = 9;
int slow_query_log = 0;
char *datadir = "/data/mysql";
char *ft_stopword_file = "";
char *socket_path = "/var/run/mysqld.sock";
char *pid_file = "/var/run/mysqld.pid";
char *log_error = "/var/log/mysqld.log";
char *slow_query_log_file = "/var/log/mysql-slow.log";
char *innodb_file_format_check = "Antelope";
char *binlog_format = "STATEMENT";
char *innodb_flush_method = "fsync";

char *key_buffer;
char *sort_buffer;
int waits_ring_pos = 0;
int stopword_count = 0;

struct sys_var_int { char *name; int *var; int def; int min; int max; };
struct sys_var_str { char *name; char **var; };

struct sys_var_int int_vars[] = {
    { "port", &mysql_port, 3306, 0, 65535 },
    { "max_connections", &max_connections, 151, 1, 100000 },
    { "key_buffer_size", &key_buffer_size, 8388608, 8, 1073741824 },
    { "sort_buffer_size", &sort_buffer_size, 262144, 1024, 1073741824 },
    { "max_allowed_packet", &max_allowed_packet, 4194304, 1024, 1073741824 },
    { "wait_timeout", &wait_timeout, 28800, 1, 31536000 },
    { "interactive_timeout", &interactive_timeout, 28800, 1, 31536000 },
    { "net_retry_count", &net_retry_count, 10, 1, 100000 },
    { "table_open_cache", &table_open_cache, 400, 1, 524288 },
    { "ft_min_word_len", &ft_min_word_len, 4, 1, 84 },
    { "ft_max_word_len", &ft_max_word_len, 84, 10, 84 },
    { "performance_schema_events_waits_history_size", &waits_history_size,
      10, 0, 1048576 },
    { "innodb_thread_sleep_delay", &innodb_thread_sleep_delay,
      10000, 0, 1000000 },
    { "innodb_thread_concurrency", &innodb_thread_concurrency, 0, 0, 1000 },
    { "thread_cache_size", &thread_cache_size, 9, 0, 16384 },
    { "slow_query_log", &slow_query_log, 0, 0, 1 },
};

struct sys_var_str str_vars[] = {
    { "datadir", &datadir },
    { "ft_stopword_file", &ft_stopword_file },
    { "socket", &socket_path },
    { "pid_file", &pid_file },
    { "log_error", &log_error },
    { "slow_query_log_file", &slow_query_log_file },
    { "innodb_file_format_check", &innodb_file_format_check },
    { "binlog_format", &binlog_format },
    { "innodb_flush_method", &innodb_flush_method },
};

int apply_setting(char *key, char *value) {
    int i;
    for (i = 0; i < 16; i++) {
        if (strcasecmp(key, int_vars[i].name) == 0) {
            long v = strtol(value, NULL, 10);
            // Uniform table-driven validity checking (§5.2), but the
            // adjustment is silent - MySQL's silent violations.
            if (v < int_vars[i].min) { v = int_vars[i].min; }
            if (v > int_vars[i].max) { v = int_vars[i].max; }
            *int_vars[i].var = (int)v;
            return 0;
        }
    }
    for (i = 0; i < 9; i++) {
        if (strcasecmp(key, str_vars[i].name) == 0) {
            *str_vars[i].var = value;
            return 0;
        }
    }
    fprintf(stderr, "[ERROR] unknown variable '%s=%s'\n", key, value);
    exit(1);
    return 0;
}

int read_config(char *path) {
    void *fp = fopen(path, "r");
    if (fp == NULL) {
        fprintf(stderr, "[ERROR] Could not open %s\n", path);
        exit(1);
    }
    char *line = fgets(fp);
    while (line != NULL) {
        char *trimmed = str_trim(line);
        if (strlen(trimmed) > 0 && trimmed[0] != '#' && trimmed[0] != '[') {
            char *eq = strchr(trimmed, '=');
            if (eq != NULL) {
                int pos = strlen(trimmed) - strlen(eq);
                char *key = str_trim(str_substr(trimmed, 0, pos));
                char *value = str_trim(eq + 1);
                apply_setting(key, value);
            }
        }
        line = fgets(fp);
    }
    fclose(fp);
    return 0;
}

int validate_options() {
    // innodb_file_format_check: case-SENSITIVE (Figure 6a), unlike
    // every other enum option in the server.
    if (strcmp(innodb_file_format_check, "Antelope") != 0) {
        if (strcmp(innodb_file_format_check, "Barracuda") != 0) {
            fprintf(stderr, "[ERROR] Invalid innodb_file_format_check "
                    "value: %s\n", innodb_file_format_check);
            exit(1);
        }
    }
    if (strcasecmp(binlog_format, "statement") != 0) {
        if (strcasecmp(binlog_format, "row") != 0) {
            if (strcasecmp(binlog_format, "mixed") != 0) {
                fprintf(stderr, "[ERROR] unknown binlog format: %s\n",
                        binlog_format);
                exit(1);
            }
        }
    }
    if (strcasecmp(innodb_flush_method, "fsync") != 0) {
        if (strcasecmp(innodb_flush_method, "O_DSYNC") != 0) {
            if (strcasecmp(innodb_flush_method, "O_DIRECT") != 0) {
                fprintf(stderr, "[ERROR] Unrecognized value %s for "
                        "innodb_flush_method\n", innodb_flush_method);
                exit(1);
            }
        }
    }
    return 0;
}

int my_open(char *FileName, int Flags) {
    int fd = open(FileName, Flags);
    return fd;
}

void *my_fopen(char *FileName, char *mode) {
    void *fp = fopen(FileName, mode);
    return fp;
}

int ft_init_stopwords() {
    if (strlen(ft_stopword_file) == 0) {
        return 0;
    }
    void *fp = my_fopen(ft_stopword_file, "r");
    if (fp == NULL) {
        fprintf(stderr, "[ERROR] Aborting\n");  // never names the file
        exit(1);
    }
    char *line = fgets(fp);
    // No NULL check: a directory path opens but reads NULL (the
    // Figure 5b crash).
    int n = strlen(line);
    while (line != NULL) {
        stopword_count = stopword_count + 1;
        line = fgets(fp);
    }
    fclose(fp);
    return n;
}

int init_storage() {
    key_buffer = malloc(key_buffer_size);
    sort_buffer = malloc(sort_buffer_size);
    // Independent environment checks combined into one verdict.
    int ok = 1;
    if (!is_directory(datadir)) {
        ok = 0;  // silent early termination
    }
    void *pid = fopen(pid_file, "w");
    if (pid == NULL) {
        ok = 0;  // silent
    } else {
        fwrite_str(pid, "4242\n");
        fclose(pid);
    }
    if (ok == 0) {
        return 1;
    }
    return 0;
}

int init_perf_schema() {
    // Ring-buffer position: modulo by zero crashes with SIGFPE
    // (Figure 7a) and there is no log message at all.
    waits_ring_pos = 7 % waits_history_size;
    return 0;
}

int init_network() {
    int fd = socket(2, 1, 0);
    if (bind(fd, mysql_port) != 0) {
        fprintf(stderr, "[ERROR] Can't start server: Bind on TCP/IP "
                "port: Address already in use. port: %d\n", mysql_port);
        exit(1);
    }
    listen(fd, 128);
    return 0;
}

int connection_reaper() {
    int w = wait_timeout;
    if (w > 2) { w = 2; }
    sleep(w);
    int iw = interactive_timeout;
    if (iw > 2) { iw = 2; }
    sleep(iw);
    return 0;
}

int innodb_throttle() {
    if (innodb_thread_concurrency > 0) {
        // The sleep delay only matters with a concurrency cap set.
        usleep(innodb_thread_sleep_delay);
    }
    return 0;
}

int ft_word_matches(char *word) {
    int length = strlen(word);
    if (length >= ft_min_word_len && length < ft_max_word_len) {
        return 1;
    }
    return 0;
}

int serve() {
    char *req = recv_request();
    while (req != NULL) {
        if (strncmp(req, "FTSEARCH ", 9) == 0) {
            char *word = str_token(req, 1);
            if (ft_word_matches(word)) {
                send_response(sprintf("FT RESULT %s", word));
            } else {
                send_response("FT EMPTY");
            }
        } else if (strncmp(req, "QUERY ", 6) == 0) {
            send_response(sprintf("OK rows=1 q=%s", str_token(req, 1)));
        } else if (strcmp(req, "PING") == 0) {
            send_response("PONG");
        } else if (strcmp(req, "STATUS") == 0) {
            send_response(sprintf("uptime=1 max_conn=%d", max_connections));
        } else {
            send_response("ERR syntax");
        }
        req = recv_request();
    }
    return 0;
}

int main(int argc, char **argv) {
    if (argc < 2) {
        fprintf(stderr, "usage: mysqld <config>\n");
        return 2;
    }
    read_config(argv[1]);
    validate_options();
    if (init_storage() != 0) {
        return 1;
    }
    ft_init_stopwords();
    init_perf_schema();
    init_network();
    connection_reaper();
    innodb_throttle();
    serve();
    return 0;
}
"""

ANNOTATIONS = """
{ @STRUCT = int_vars
  @PAR = [sys_var_int, 1]
  @VAR = [sys_var_int, 2]
  @MIN = [sys_var_int, 4]
  @MAX = [sys_var_int, 5] }
{ @STRUCT = str_vars
  @PAR = [sys_var_str, 1]
  @VAR = [sys_var_str, 2] }
"""

DEFAULT_CONFIG = """\
# mysqld-mini configuration
port=3306
max_connections=151
key_buffer_size=8388608
sort_buffer_size=262144
max_allowed_packet=4194304
wait_timeout=28800
interactive_timeout=28800
net_retry_count=10
table_open_cache=400
ft_min_word_len=4
ft_max_word_len=84
performance_schema_events_waits_history_size=10
innodb_thread_sleep_delay=10000
innodb_thread_concurrency=0
thread_cache_size=9
slow_query_log=0
datadir=/data/mysql
ft_stopword_file=
socket=/var/run/mysqld.sock
pid_file=/var/run/mysqld.pid
log_error=/var/log/mysqld.log
slow_query_log_file=/var/log/mysql-slow.log
innodb_file_format_check=Antelope
binlog_format=STATEMENT
innodb_flush_method=fsync
"""

MANUAL = {
    "port": "port: TCP port, 0..65535.",
    "max_connections": "max_connections: 1..100000.",
    "key_buffer_size": "key_buffer_size <bytes>: 8..1073741824.",
    "sort_buffer_size": "sort_buffer_size <bytes>: 1024..1073741824.",
    "max_allowed_packet": "max_allowed_packet <bytes>, 1K..1G.",
    "wait_timeout": "wait_timeout <seconds>: 1..31536000.",
    "interactive_timeout": "interactive_timeout <seconds>: 1..31536000.",
    "table_open_cache": "table_open_cache: 1..524288.",
    "ft_min_word_len": "ft_min_word_len: 1..84, minimum full-text word length.",
    "ft_max_word_len": "ft_max_word_len: 10..84, maximum full-text word length.",
    "datadir": "datadir <path>: data directory.",
    "ft_stopword_file": "ft_stopword_file <file>: stopword list.",
    "socket": "socket <path>: unix socket file.",
    "pid_file": "pid_file <path>.",
    "log_error": "log_error <path>.",
    "binlog_format": "binlog_format STATEMENT|ROW|MIXED.",
    "slow_query_log": "slow_query_log 0|1.",
    "innodb_thread_concurrency": "innodb_thread_concurrency: 0..1000.",
    "innodb_flush_method": "innodb_flush_method fsync|O_DSYNC|O_DIRECT.",
    "innodb_file_format_check": "innodb_file_format_check: file format.",
    # undocumented: performance_schema_events_waits_history_size,
    # innodb_thread_sleep_delay (+ its concurrency dependency),
    # net_retry_count, thread_cache_size, slow_query_log(_file),
    # and the ft_min<ft_max relationship.
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
            name="query",
            requests=["QUERY select1"],
            oracle=lambda r: r == ["OK rows=1 q=select1"],
            duration=1.0,
        ),
        FunctionalTest(
            name="fulltext",
            requests=["FTSEARCH hello"],
            oracle=lambda r: r == ["FT RESULT hello"],
            duration=2.0,
        ),
        FunctionalTest(
            name="status",
            requests=["STATUS"],
            oracle=lambda r: len(r) == 1 and r[0].startswith("uptime="),
            duration=0.5,
        ),
    ]


# (config name, decoder slug, effective variable, extra truth).  Every
# sys_var_int row carries the table's min/max columns, so every int
# parameter gets a range truth; the renames follow the real server
# (`port` lands in `mysql_port`, the performance-schema mouthful in
# `waits_history_size`).
_INTS = [
    ("port", "int", "mysql_port",
     (truth_semantic("port", "PORT"),)),
    ("max_connections", "int", SAME_AS_NAME, ()),
    ("key_buffer_size", "size", SAME_AS_NAME,
     (truth_semantic("key_buffer_size", "SIZE"),)),
    ("sort_buffer_size", "size", SAME_AS_NAME,
     (truth_semantic("sort_buffer_size", "SIZE"),)),
    ("max_allowed_packet", "size", SAME_AS_NAME, ()),
    ("wait_timeout", "int", SAME_AS_NAME,
     (truth_semantic("wait_timeout", "TIME"),)),
    ("interactive_timeout", "int", SAME_AS_NAME,
     (truth_semantic("interactive_timeout", "TIME"),)),
    ("net_retry_count", "int", SAME_AS_NAME, ()),
    ("table_open_cache", "int", SAME_AS_NAME, ()),
    ("ft_min_word_len", "int", SAME_AS_NAME, ()),
    ("ft_max_word_len", "int", SAME_AS_NAME, ()),
    ("performance_schema_events_waits_history_size", "int",
     "waits_history_size", ()),
    ("innodb_thread_sleep_delay", "int", SAME_AS_NAME,
     (truth_semantic("innodb_thread_sleep_delay", "TIME"),)),
    ("innodb_thread_concurrency", "int", SAME_AS_NAME, ()),
    ("thread_cache_size", "int", SAME_AS_NAME, ()),
    ("slow_query_log", "int", SAME_AS_NAME, ()),
]

_STRS = [
    ("datadir", SAME_AS_NAME,
     (truth_semantic("datadir", "DIRECTORY"),)),
    ("ft_stopword_file", SAME_AS_NAME,
     (truth_semantic("ft_stopword_file", "FILE"),)),
    ("socket", "socket_path", ()),
    ("pid_file", SAME_AS_NAME,
     (truth_semantic("pid_file", "FILE"),)),
    ("log_error", SAME_AS_NAME, ()),
    ("slow_query_log_file", SAME_AS_NAME, ()),
]

# Enum directives validated by strcmp ladders (innodb_file_format_check
# is the single case-sensitive one, Figure 6a); their value sets are
# range truth.
_ENUMS = [
    "innodb_file_format_check",
    "binlog_format",
    "innodb_flush_method",
]

@register("mysql")
def build() -> SubjectSystem:
    return SubjectSystem(
        name="mysql",
        display_name="MySQL",
        description="Miniature mysqld with the paper's MySQL traits",
        sources={"mysqld.c": MYSQLD_MAIN},
        annotations=ANNOTATIONS,
        dialect=KeyValueDialect("="),
        config_path="/etc/my.cnf",
        default_config=DEFAULT_CONFIG,
        params=[
            ParamSpec(
                name,
                decode=decode,
                var=var,
                manual=MANUAL.get(name),
                truth=(truth_basic(name, "int"), truth_range(name)) + extra,
            )
            for name, decode, var, extra in _INTS
        ]
        + [
            ParamSpec(
                name,
                decode="string",
                var=var,
                manual=MANUAL.get(name),
                truth=(truth_basic(name, "string"),) + extra,
            )
            for name, var, extra in _STRS
        ]
        + [
            ParamSpec(
                name,
                decode="string",
                var=SAME_AS_NAME,
                manual=MANUAL.get(name),
                truth=(truth_basic(name, "string"), truth_range(name)),
            )
            for name in _ENUMS
        ],
        tests=_tests(),
        extra_truth=[
            truth_value_rel("ft_min_word_len", "ft_max_word_len"),
            truth_ctrl_dep(
                "innodb_thread_sleep_delay", "innodb_thread_concurrency"
            ),
        ],
        os_dirs=[OsDir("/data/mysql")],
    )
