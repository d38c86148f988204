"""Apache-mini: miniature httpd.

Paper traits reproduced:

* Figure 4(b)'s structure-based mapping to parsing functions
  (AP_INIT_TAKE1-style command table, value arrives in each handler's
  ``arg`` parameter);
* Figure 6(b): ``MaxMemFree`` is in KBytes while every other size
  parameter uses bytes (``value * 1024`` before the allocator);
* Figure 7(b): ``ThreadLimit 100000`` aborts during startup with the
  misleading "Unable to create access scoreboard" message;
* ``atoi`` in the handlers (Table 8: 27 parameters behind unsafe
  transformations);
* division-by-zero and scoreboard overrun crashes under extreme
  values (Table 5a: 5 crash/hang entries for Apache).
"""

from __future__ import annotations

from repro.core.accuracy import (
    truth_basic,
    truth_ctrl_dep,
    truth_range,
    truth_semantic,
)
from repro.inject.ar import DirectiveDialect
from repro.systems.base import FunctionalTest, OsDir, ParamSpec, SubjectSystem
from repro.systems.registry import register

HTTPD_MAIN = r"""
// httpd-mini
int listen_port = 80;
int thread_limit = 64;
int threads_per_child = 25;
int server_limit = 16;
int max_keepalive_requests = 100;
int keep_alive = 1;
int keep_alive_timeout = 5;
int request_timeout = 60;
int send_buffer_size = 8192;
int ap_max_mem_free = 2048 * 1024;
int hostname_lookups = 0;
int log_level_code = 4;
char *document_root = "/data/www";
char *server_name = "localhost";
char *run_user = "www-data";
char *pid_file_path = "/var/run/httpd.pid";
char *accept_filter_mode = "data";

int worker_score[64];
char *scoreboard;
char *free_pool;
char *resolved_ip;

int set_listen_port(char *arg) {
    listen_port = atoi(arg);
    return 0;
}

int set_thread_limit(char *arg) {
    thread_limit = atoi(arg);
    return 0;
}

int set_threads_per_child(char *arg) {
    threads_per_child = atoi(arg);
    return 0;
}

int set_server_limit(char *arg) {
    server_limit = atoi(arg);
    return 0;
}

int set_max_keepalive(char *arg) {
    max_keepalive_requests = atoi(arg);
    return 0;
}

int set_keep_alive(char *arg) {
    // Apache accepts On/Off case-insensitively.
    if (strcasecmp(arg, "on") == 0) {
        keep_alive = 1;
    } else if (strcasecmp(arg, "off") == 0) {
        keep_alive = 0;
    } else {
        fprintf(stderr, "AH00525: KeepAlive must be On or Off, got %s\n", arg);
        exit(1);
    }
    return 0;
}

int set_keep_alive_timeout(char *arg) {
    keep_alive_timeout = atoi(arg);
    return 0;
}

int set_request_timeout(char *arg) {
    request_timeout = atoi(arg);
    return 0;
}

int set_send_buffer_size(char *arg) {
    send_buffer_size = atoi(arg);
    return 0;
}

int set_max_mem_free(char *arg) {
    // Figure 6(b): unlike the other size directives (bytes), this one
    // is in KBytes.
    int value = atoi(arg);
    ap_max_mem_free = value * 1024;
    return 0;
}

int set_hostname_lookups(char *arg) {
    if (strcasecmp(arg, "on") == 0) { hostname_lookups = 1; }
    else if (strcasecmp(arg, "off") == 0) { hostname_lookups = 0; }
    else if (strcasecmp(arg, "double") == 0) { hostname_lookups = 2; }
    else { hostname_lookups = 0; }  // silently off
    return 0;
}

int set_log_level(char *arg) {
    if (strcasecmp(arg, "debug") == 0) { log_level_code = 7; }
    else if (strcasecmp(arg, "info") == 0) { log_level_code = 6; }
    else if (strcasecmp(arg, "notice") == 0) { log_level_code = 5; }
    else if (strcasecmp(arg, "warn") == 0) { log_level_code = 4; }
    else if (strcasecmp(arg, "error") == 0) { log_level_code = 3; }
    else {
        fprintf(stderr, "AH00526: Invalid LogLevel %s\n", arg);
        exit(1);
    }
    return 0;
}

int set_document_root(char *arg) {
    if (!is_directory(arg)) {
        fprintf(stderr, "AH00112: DocumentRoot '%s' does not exist\n", arg);
        exit(1);
    }
    document_root = arg;
    return 0;
}

int set_server_name(char *arg) {
    server_name = arg;
    return 0;
}

int set_user(char *arg) {
    if (getpwnam(arg) == NULL) {
        fprintf(stderr, "AH00544: could not find user %s\n", arg);
        exit(1);
    }
    run_user = arg;
    return 0;
}

int set_pid_file(char *arg) {
    pid_file_path = arg;
    return 0;
}

int set_accept_filter(char *arg) {
    // Case-SENSITIVE, unlike the other enum directives.
    if (strcmp(arg, "data") == 0) { accept_filter_mode = "data"; }
    else if (strcmp(arg, "httpready") == 0) { accept_filter_mode = "httpready"; }
    else { accept_filter_mode = "none"; }  // silently none
    return 0;
}

struct command_rec { char *name; void *func; };

struct command_rec core_cmds[] = {
    { "Listen", set_listen_port },
    { "ThreadLimit", set_thread_limit },
    { "ThreadsPerChild", set_threads_per_child },
    { "ServerLimit", set_server_limit },
    { "MaxKeepAliveRequests", set_max_keepalive },
    { "KeepAlive", set_keep_alive },
    { "KeepAliveTimeout", set_keep_alive_timeout },
    { "TimeOut", set_request_timeout },
    { "SendBufferSize", set_send_buffer_size },
    { "MaxMemFree", set_max_mem_free },
    { "HostnameLookups", set_hostname_lookups },
    { "LogLevel", set_log_level },
    { "DocumentRoot", set_document_root },
    { "ServerName", set_server_name },
    { "User", set_user },
    { "PidFile", set_pid_file },
    { "AcceptFilter", set_accept_filter },
};

int read_config(char *path) {
    void *fp = fopen(path, "r");
    if (fp == NULL) {
        fprintf(stderr, "httpd: could not open document config file %s\n",
                path);
        exit(1);
    }
    char *line = fgets(fp);
    while (line != NULL) {
        char *trimmed = str_trim(line);
        if (strlen(trimmed) > 0 && trimmed[0] != '#') {
            char *key = str_token(trimmed, 0);
            char *value = str_token(trimmed, 1);
            if (key != NULL && value != NULL) {
                int i;
                for (i = 0; i < 17; i++) {
                    if (strcasecmp(key, core_cmds[i].name) == 0) {
                        core_cmds[i].func(value);
                    }
                }
            }
        }
        line = fgets(fp);
    }
    fclose(fp);
    return 0;
}

int create_scoreboard() {
    // Connection buckets: ServerLimit 0 divides by zero (SIGFPE).
    int per_bucket = thread_limit / server_limit;
    // Figure 7(b): the scoreboard allocation fails for absurd thread
    // limits and the message never mentions ThreadLimit.
    scoreboard = malloc(thread_limit * server_limit * 4096);
    if (scoreboard == NULL) {
        fprintf(stderr, "Cannot allocate memory: AH00004: Unable to create "
                "access scoreboard (anonymous shared memory failure)\n");
        exit(1);
    }
    // Hard-coded 64 worker slots; ThreadsPerChild beyond that corrupts
    // memory with no check.
    int i;
    for (i = 0; i < threads_per_child; i++) {
        worker_score[i] = 0;
    }
    free_pool = malloc(ap_max_mem_free);
    return per_bucket;
}

int init_network() {
    int fd = socket(2, 1, 0);
    if (bind(fd, listen_port) != 0) {
        fprintf(stderr, "(98)Address already in use: AH00072: make_sock: "
                "could not bind to address\n");
        exit(1);
    }
    listen(fd, 128);
    char *buf = malloc(send_buffer_size);
    return 0;
}

int resolve_server_name() {
    resolved_ip = gethostbyname(server_name);
    if (resolved_ip == NULL) {
        // AH00558-style warning: does not name the directive.
        fprintf(stderr, "AH00558: could not reliably determine the "
                "server's fully qualified domain name\n");
    }
    return 0;
}

int keepalive_tick() {
    if (keep_alive != 0) {
        int wait = keep_alive_timeout;
        if (wait > 2) { wait = 2; }
        sleep(wait);
    }
    return 0;
}

int serve() {
    char *req = recv_request();
    int served = 0;
    while (req != NULL) {
        if (strncmp(req, "GET ", 4) == 0) {
            char *path = str_token(req, 1);
            if (resolved_ip == NULL) {
                send_response("HTTP/1.1 502 cannot resolve own name");
            } else {
                send_response(sprintf("HTTP/1.1 200 OK %s%s root-ok",
                                      document_root, path));
            }
        } else if (strcmp(req, "STATUS") == 0) {
            send_response(sprintf("workers=%d keepalive=%d",
                                  threads_per_child, keep_alive));
        } else {
            send_response("HTTP/1.1 400 Bad Request");
        }
        served = served + 1;
        req = recv_request();
    }
    return 0;
}

int main(int argc, char **argv) {
    if (argc < 2) {
        fprintf(stderr, "usage: httpd <config>\n");
        return 2;
    }
    read_config(argv[1]);
    create_scoreboard();
    init_network();
    resolve_server_name();
    keepalive_tick();
    serve();
    return 0;
}
"""

ANNOTATIONS = """
{ @STRUCT = core_cmds
  @PAR = [command_rec, 1]
  @VAR = ([command_rec, 2], $arg) }
"""

DEFAULT_CONFIG = """\
# httpd-mini configuration
Listen 80
ThreadLimit 64
ThreadsPerChild 25
ServerLimit 16
MaxKeepAliveRequests 100
KeepAlive On
KeepAliveTimeout 5
TimeOut 60
SendBufferSize 8192
MaxMemFree 2048
HostnameLookups Off
LogLevel warn
DocumentRoot /data/www
ServerName localhost
User www-data
PidFile /var/run/httpd.pid
AcceptFilter data
"""

MANUAL = {
    "Listen": "Listen <port>.",
    "ThreadsPerChild": "ThreadsPerChild <n>: threads per child process.",
    "ServerLimit": "ServerLimit <n>: upper bound of child processes.",
    "MaxKeepAliveRequests": "MaxKeepAliveRequests <n>.",
    "KeepAlive": "KeepAlive On|Off.",
    "KeepAliveTimeout": "KeepAliveTimeout <seconds>.",
    "TimeOut": "TimeOut <seconds>.",
    "SendBufferSize": "SendBufferSize <bytes>.",
    "MaxMemFree": "MaxMemFree <KBytes>: free-list memory cap per allocator.",
    "HostnameLookups": "HostnameLookups On|Off|Double.",
    "LogLevel": "LogLevel debug|info|notice|warn|error.",
    "DocumentRoot": "DocumentRoot <directory>.",
    "ServerName": "ServerName <hostname>.",
    "User": "User <username>.",
    "PidFile": "PidFile <path>.",
    # ThreadLimit and AcceptFilter are undocumented in the mini manual
    # (the real ThreadLimit footgun of Figure 7b).
}


def _tests() -> list[FunctionalTest]:
    return [
        FunctionalTest(
            name="fetch_index",
            requests=["GET /index.html"],
            oracle=lambda r: len(r) == 1 and r[0].startswith("HTTP/1.1 200 OK"),
            duration=1.0,
        ),
        FunctionalTest(
            name="status",
            requests=["STATUS"],
            oracle=lambda r: len(r) == 1 and r[0].startswith("workers="),
            duration=0.5,
        ),
        FunctionalTest(
            name="two_requests",
            requests=["GET /a.html", "GET /b.html"],
            oracle=lambda r: len(r) == 2
            and all(x.startswith("HTTP/1.1 200") for x in r),
            duration=2.0,
        ),
    ]


@register("apache")
def build() -> SubjectSystem:
    return SubjectSystem(
        name="apache",
        display_name="Apache httpd",
        description="Miniature httpd with the paper's Apache traits",
        sources={"httpd.c": HTTPD_MAIN},
        annotations=ANNOTATIONS,
        dialect=DirectiveDialect(),
        config_path="/etc/httpd.conf",
        default_config=DEFAULT_CONFIG,
        params=[
            ParamSpec(
                "Listen",
                decode="int",
                var="listen_port",
                manual=MANUAL["Listen"],
                truth=(
                    truth_basic("Listen", "int"),
                    truth_semantic("Listen", "PORT"),
                ),
            ),
            # Undocumented in the mini manual (the real ThreadLimit footgun
            # of Figure 7b).
            ParamSpec(
                "ThreadLimit",
                decode="int",
                var="thread_limit",
                truth=(truth_basic("ThreadLimit", "int"),),
            ),
            ParamSpec(
                "ThreadsPerChild",
                decode="int",
                var="threads_per_child",
                manual=MANUAL["ThreadsPerChild"],
                truth=(truth_basic("ThreadsPerChild", "int"),),
            ),
            ParamSpec(
                "ServerLimit",
                decode="int",
                var="server_limit",
                manual=MANUAL["ServerLimit"],
                truth=(truth_basic("ServerLimit", "int"),),
            ),
            ParamSpec(
                "MaxKeepAliveRequests",
                decode="int",
                var="max_keepalive_requests",
                manual=MANUAL["MaxKeepAliveRequests"],
                truth=(truth_basic("MaxKeepAliveRequests", "int"),),
            ),
            ParamSpec(
                "KeepAlive",
                decode="bool",
                var="keep_alive",
                manual=MANUAL["KeepAlive"],
                truth=(
                    truth_basic("KeepAlive", "string"),
                    truth_range("KeepAlive"),
                ),
            ),
            ParamSpec(
                "KeepAliveTimeout",
                decode="int",
                var="keep_alive_timeout",
                manual=MANUAL["KeepAliveTimeout"],
                truth=(
                    truth_basic("KeepAliveTimeout", "int"),
                    truth_semantic("KeepAliveTimeout", "TIME"),
                ),
            ),
            ParamSpec(
                "TimeOut",
                decode="int",
                var="request_timeout",
                manual=MANUAL["TimeOut"],
                truth=(truth_basic("TimeOut", "int"),),
            ),
            ParamSpec(
                "SendBufferSize",
                decode="size",
                var="send_buffer_size",
                manual=MANUAL["SendBufferSize"],
                truth=(
                    truth_basic("SendBufferSize", "int"),
                    truth_semantic("SendBufferSize", "SIZE"),
                ),
            ),
            # Figure 6(b): expressed in KB, stored in bytes - a transformed
            # store, so no effective-value tracking (intent is the KB text).
            ParamSpec(
                "MaxMemFree",
                decode="int",
                var=None,
                manual=MANUAL["MaxMemFree"],
                truth=(
                    truth_basic("MaxMemFree", "int"),
                    truth_semantic("MaxMemFree", "SIZE"),
                ),
            ),
            ParamSpec(
                "HostnameLookups",
                decode="string",
                var="hostname_lookups",
                manual=MANUAL["HostnameLookups"],
                truth=(
                    truth_basic("HostnameLookups", "string"),
                    truth_range("HostnameLookups"),
                ),
            ),
            # The enum store is a syslog level code, not the config text.
            ParamSpec(
                "LogLevel",
                decode="string",
                var=None,
                manual=MANUAL["LogLevel"],
                truth=(
                    truth_basic("LogLevel", "string"),
                    truth_range("LogLevel"),
                ),
            ),
            ParamSpec(
                "DocumentRoot",
                decode="string",
                var="document_root",
                manual=MANUAL["DocumentRoot"],
                truth=(
                    truth_basic("DocumentRoot", "string"),
                    truth_semantic("DocumentRoot", "DIRECTORY"),
                ),
            ),
            ParamSpec(
                "ServerName",
                decode="string",
                var="server_name",
                manual=MANUAL["ServerName"],
                truth=(
                    truth_basic("ServerName", "string"),
                    truth_semantic("ServerName", "HOSTNAME"),
                ),
            ),
            ParamSpec(
                "User",
                decode="string",
                var="run_user",
                manual=MANUAL["User"],
                truth=(
                    truth_basic("User", "string"),
                    truth_semantic("User", "USER"),
                ),
            ),
            ParamSpec(
                "PidFile",
                decode="string",
                var="pid_file_path",
                manual=MANUAL["PidFile"],
                truth=(truth_basic("PidFile", "string"),),
            ),
            # Undocumented, like ThreadLimit.
            ParamSpec(
                "AcceptFilter",
                decode="string",
                var="accept_filter_mode",
                truth=(
                    truth_basic("AcceptFilter", "string"),
                    truth_range("AcceptFilter"),
                ),
            ),
        ],
        tests=_tests(),
        extra_truth=[truth_ctrl_dep("KeepAliveTimeout", "KeepAlive")],
        os_dirs=[OsDir("/data/www")],
    )
